// §II octree-vs-nblist ablation: nblist memory grows with the cutoff
// (cubically in the bulk) and with the atom count, while the octree's
// footprint is linear in the atom count and independent of any
// approximation parameter — the property that lets octree codes handle
// molecules that make nblist-based MD packages run out of memory.

#include <cstdio>
#include <exception>

#include "common.hpp"

using namespace octgb;

int main(int argc, char** argv) try {
  util::Args args;
  args.parse(argc, argv);

  bench::print_environment();

  // --- memory vs cutoff at fixed size -----------------------------------
  const auto m = mol::generate_protein(
      {.target_atoms = bench::quick_mode() ? 4000u : 12000u, .seed = 77});
  std::vector<geom::Vec3> pts(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) pts[i] = m.atom(i).pos;
  const auto tree = octree::Octree::build(pts);

  util::Table t1(util::format(
      "nblist memory vs cutoff (%zu atoms); octree is cutoff-free",
      m.size()));
  t1.header({"cutoff (A)", "nblist pairs", "nblist bytes", "octree bytes"});
  for (double cutoff : {4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 24.0}) {
    const auto nb = octree::NbList::build(pts, {.cutoff = cutoff,
                                                .max_bytes = 0});
    t1.row({util::format("%.0f", cutoff),
            util::format("%zu", nb.total_pairs()),
            util::human_bytes(double(nb.footprint_bytes())),
            util::human_bytes(double(tree.footprint_bytes()))});
  }
  t1.print();
  bench::save_csv(t1, "octree_vs_nblist_cutoff");

  // --- memory vs size at fixed cutoff ------------------------------------
  util::Table t2("memory vs atom count (cutoff 12 A)");
  t2.header({"atoms", "nblist bytes", "octree bytes", "nblist/octree"});
  for (std::size_t n : {1000u, 2000u, 4000u, 8000u, 16000u}) {
    if (bench::quick_mode() && n > 4000u) break;
    const auto mol_n = mol::generate_protein({.target_atoms = n, .seed = 78});
    std::vector<geom::Vec3> pn(mol_n.size());
    for (std::size_t i = 0; i < mol_n.size(); ++i) pn[i] = mol_n.atom(i).pos;
    const auto nb = octree::NbList::build(pn, {.cutoff = 12.0,
                                               .max_bytes = 0});
    const auto tr = octree::Octree::build(pn);
    t2.row({util::format("%zu", mol_n.size()),
            util::human_bytes(double(nb.footprint_bytes())),
            util::human_bytes(double(tr.footprint_bytes())),
            util::format("%.1f", double(nb.footprint_bytes()) /
                                     double(tr.footprint_bytes()))});
  }
  t2.print();
  bench::save_csv(t2, "octree_vs_nblist_size");

  // --- simulated OOM on a virus-size input --------------------------------
  const auto shell = mol::make_cmv(bench::quick_mode() ? 0.01 : 0.04);
  std::vector<geom::Vec3> ps(shell.size());
  for (std::size_t i = 0; i < shell.size(); ++i) ps[i] = shell.atom(i).pos;
  std::printf("\n%s (%zu atoms), 24 GB-node budget:\n", shell.name().c_str(),
              shell.size());
  try {
    const auto nb = octree::NbList::build(
        ps, {.cutoff = 60.0,
             .max_bytes = std::size_t{2} * 1024 * 1024 * 1024});
    std::printf("  nblist cutoff 60 A: %s\n",
                util::human_bytes(double(nb.footprint_bytes())).c_str());
  } catch (const octree::NbListOutOfMemory& e) {
    std::printf("  nblist cutoff 60 A: OOM (%s)\n", e.what());
  }
  const auto tr = octree::Octree::build(ps);
  std::printf("  octree (any eps): %s\n",
              util::human_bytes(double(tr.footprint_bytes())).c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
