// Tests for the out-of-process transport (DESIGN.md §2.10): the wire
// frame codec (including the mid-frame socket-cut truncation sweep), the
// SPSC shared-memory rings and segment, reconnect backoff, the file-backed
// checkpoint store, and — in the ProcJob tests — whole fork/exec jobs
// under mpp::launch::run_job with real SIGKILLs.
//
// This binary is its own rank worker: run_job re-execs /proc/self/exe with
// `--worker-child <mode>` and the rendezvous environment, and main()
// dispatches into worker_child_main before gtest ever sees the argv. The
// ProcJob tests therefore need no external binary and keep the kill gate
// inside plain ctest. (CI's TSan job excludes `ProcJob.*` — fork/exec of
// an instrumented binary is slow and noisy there; the unit tests cover the
// transport logic under TSan.)

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "octgb/octgb.hpp"

using namespace octgb;
using mpp::CommStatus;
namespace wire = mpp::wire;

namespace {

std::string temp_dir() {
  char templ[] = "/tmp/octgb-proc-test.XXXXXX";
  OCTGB_CHECK(::mkdtemp(templ) != nullptr);
  return templ;
}

void remove_tree(const std::string& dir) {
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
}

std::vector<std::uint8_t> make_frame(int src, int tag,
                                     const std::string& payload) {
  std::vector<std::uint8_t> out;
  wire::encode_frame(src, tag, payload.data(), payload.size(), out);
  return out;
}

// --- the worker side of the ProcJob tests ----------------------------------

/// Deterministic small problem shared by the in-thread reference and every
/// worker process (the replicated data of the paper's processes).
core::GBEngine make_worker_engine() {
  auto molecule = mol::generate_protein({.target_atoms = 150, .seed = 7});
  surface::SurfaceParams sp;
  sp.subdivision = 1;
  const auto surf = surface::build_surface(molecule, sp);
  return core::GBEngine(molecule, surf, core::EngineConfig{});
}

int worker_child_main(const std::string& mode) {
  auto env = mpp::proc::ProcessRuntime::from_env();
  if (!env) {
    std::fprintf(stderr, "worker child without rendezvous environment\n");
    return 2;
  }
  double epol = 0.0;
  mpp::proc::ProcessRuntime::run(*env, [&](mpp::Comm& comm) {
    if (mode == "pingpong") {
      const int me = comm.rank();
      for (int dst = 0; dst < comm.size(); ++dst)
        if (dst != me) comm.send_value(dst, 3, me);
      int sum = me;
      for (int src = 0; src < comm.size(); ++src)
        if (src != me) sum += comm.recv_value<int>(src, 3);
      OCTGB_CHECK(sum == comm.size() * (comm.size() - 1) / 2);
      epol = comm.allreduce_sum(static_cast<double>(sum));
      return;
    }
    OCTGB_CHECK_MSG(mode == "elastic", "unknown worker mode " << mode);
    const core::GBEngine engine = make_worker_engine();
    core::ElasticConfig cfg;
    cfg.hybrid.ranks = env->size;
    cfg.hybrid.topology = comm.topology();
    core::CheckpointStore store(env->dir + "/ckpt");
    epol = core::run_elastic_rank(engine, cfg, comm, store).epol;
  });
  std::uint64_t bits = 0;
  std::memcpy(&bits, &epol, sizeof(bits));
  char text[64];
  std::snprintf(text, sizeof(text), "%016llx\n",
                static_cast<unsigned long long>(bits));
  OCTGB_CHECK(util::io::write_file_atomic(
      env->dir + "/epol." + std::to_string(env->rank), text));
  return 0;
}

mpp::launch::JobSpec self_job(int ranks, const std::string& mode) {
  mpp::launch::JobSpec spec;
  spec.ranks = ranks;
  spec.topology.ranks_per_node = 2;
  spec.command = {"/proc/self/exe", "--worker-child", mode};
  spec.timeout_ms = 120000.0;
  return spec;
}

std::optional<std::uint64_t> epol_bits(const std::string& dir, int rank) {
  std::string text;
  if (!util::io::read_file(dir + "/epol." + std::to_string(rank), text))
    return std::nullopt;
  return std::strtoull(text.c_str(), nullptr, 16);
}

}  // namespace

// --- wire frame codec -------------------------------------------------------

TEST(Wire, EncodeDecodeRoundTrip) {
  const auto frame = make_frame(3, 42, "polarization");
  const auto decoded = wire::decode_frame(frame.data(), frame.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded.value().src, 3);
  EXPECT_EQ(decoded.value().tag, 42);
  EXPECT_EQ(std::string(decoded.value().payload.begin(),
                        decoded.value().payload.end()),
            "polarization");
}

TEST(Wire, EmptyPayloadRoundTrips) {
  const auto frame = make_frame(0, -2, "");
  const auto decoded = wire::decode_frame(frame.data(), frame.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded.value().payload.empty());
}

TEST(Wire, EveryFlippedPayloadBitFailsTheCrc) {
  const std::string payload = "epol";
  for (std::size_t bit = 0; bit < payload.size() * 8; ++bit) {
    auto frame = make_frame(1, 9, payload);
    frame[sizeof(wire::FrameHeader) + bit / 8] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    const auto decoded = wire::decode_frame(frame.data(), frame.size());
    ASSERT_FALSE(decoded.has_value()) << "bit " << bit;
    EXPECT_EQ(decoded.error(), CommStatus::ChecksumMismatch);
  }
}

TEST(Wire, TruncationAtEveryByteIsConnectionLost) {
  const auto frame = make_frame(2, 7, "truncated-stream");
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const auto decoded = wire::decode_frame(frame.data(), len);
    ASSERT_FALSE(decoded.has_value()) << "len " << len;
    EXPECT_EQ(decoded.error(), CommStatus::ConnectionLost);
  }
}

TEST(Wire, ImplausiblePayloadLengthIsConnectionLost) {
  auto frame = make_frame(0, 1, "x");
  wire::FrameHeader h;
  std::memcpy(&h, frame.data(), sizeof(h));
  h.payload_bytes = wire::kMaxFramePayload + 1;
  std::memcpy(frame.data(), &h, sizeof(h));
  const auto decoded = wire::decode_frame(frame.data(), frame.size());
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error(), CommStatus::ConnectionLost);
}

TEST(Wire, SocketRoundTripDeliversFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = "over-the-wire";
  ASSERT_TRUE(
      wire::write_frame_fd(fds[0], 5, 11, payload.data(), payload.size()));
  ::close(fds[0]);
  const auto frame = wire::read_frame_fd(fds[1]);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame.value().src, 5);
  EXPECT_EQ(frame.value().tag, 11);
  EXPECT_EQ(std::string(frame.value().payload.begin(),
                        frame.value().payload.end()),
            payload);
  // The peer closed after its one frame: the next read is ConnectionLost.
  const auto eof = wire::read_frame_fd(fds[1]);
  ASSERT_FALSE(eof.has_value());
  EXPECT_EQ(eof.error(), CommStatus::ConnectionLost);
  ::close(fds[1]);
}

TEST(Wire, MidFrameSocketCutSweepIsConnectionLost) {
  // The satellite extension of the PR-4 truncation sweep to the socket
  // path: a connection cut after ANY proper prefix of a frame — including
  // inside the header — must surface as ConnectionLost, never as a hang,
  // a short struct, or UB.
  const auto frame = make_frame(1, 13, "cut-mid-frame");
  for (std::size_t len = 0; len < frame.size(); ++len) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_TRUE(util::io::write_exact(fds[0], frame.data(), len).has_value());
    ::close(fds[0]);  // the cut
    const auto decoded = wire::read_frame_fd(fds[1]);
    ASSERT_FALSE(decoded.has_value()) << "cut after " << len << " bytes";
    EXPECT_EQ(decoded.error(), CommStatus::ConnectionLost);
    ::close(fds[1]);
  }
}

TEST(Wire, CorruptPayloadOverSocketIsChecksumMismatch) {
  auto frame = make_frame(1, 13, "bitrot");
  frame[sizeof(wire::FrameHeader)] ^= 0x40;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(
      util::io::write_exact(fds[0], frame.data(), frame.size()).has_value());
  ::close(fds[0]);
  const auto decoded = wire::read_frame_fd(fds[1]);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error(), CommStatus::ChecksumMismatch);
  ::close(fds[1]);
}

// --- shm rings and segment --------------------------------------------------

namespace {

struct SegmentFixture {
  std::string dir = temp_dir();
  mpp::shm::Segment seg;

  explicit SegmentFixture(int ranks, int ranks_per_node,
                          std::uint64_t ring_bytes = 4096) {
    mpp::shm::Segment::Options o;
    o.ranks = ranks;
    o.topology.ranks_per_node = ranks_per_node;
    o.ring_bytes = ring_bytes;
    seg = mpp::shm::Segment::create(dir + "/shm", o);
  }
  ~SegmentFixture() { remove_tree(dir); }
};

}  // namespace

TEST(ShmRing, PushPopRoundTrip) {
  SegmentFixture f(2, 2);
  mpp::shm::Ring out = f.seg.ring(0, 1);
  ASSERT_TRUE(out.valid());
  const std::string msg = "ring-payload";
  EXPECT_EQ(out.try_push(msg.data(), msg.size()), msg.size());
  char buf[64] = {};
  EXPECT_EQ(out.try_pop(buf, sizeof(buf)), msg.size());
  EXPECT_EQ(std::string(buf, msg.size()), msg);
  EXPECT_EQ(out.try_pop(buf, sizeof(buf)), 0u);  // drained
}

TEST(ShmRing, PartialPushWhenNearlyFullAndWrapAround) {
  SegmentFixture f(2, 2, /*ring_bytes=*/4096);
  mpp::shm::Ring ring = f.seg.ring(0, 1);
  std::vector<std::uint8_t> chunk(3072, 0xAB);
  ASSERT_EQ(ring.try_push(chunk.data(), chunk.size()), chunk.size());
  // Only 1024 bytes left: the push is partial, not blocking, not failing.
  EXPECT_EQ(ring.try_push(chunk.data(), chunk.size()), 1024u);
  std::vector<std::uint8_t> sink(4096);
  EXPECT_EQ(ring.try_pop(sink.data(), sink.size()), 4096u);
  // Cursors are now mid-buffer: the next push/pop pair must wrap cleanly.
  std::vector<std::uint8_t> pattern(2048);
  for (std::size_t i = 0; i < pattern.size(); ++i)
    pattern[i] = static_cast<std::uint8_t>(i * 7 + 1);
  ASSERT_EQ(ring.try_push(pattern.data(), pattern.size()), pattern.size());
  std::vector<std::uint8_t> got(pattern.size());
  ASSERT_EQ(ring.try_pop(got.data(), got.size()), got.size());
  EXPECT_EQ(got, pattern);
}

TEST(ShmRing, ManyFramesStreamThroughATinyRing) {
  // Frames far larger than the ring flow through in pieces — the
  // transport's anti-deadlock contract for big collective payloads.
  SegmentFixture f(2, 2, /*ring_bytes=*/4096);
  mpp::shm::Ring ring = f.seg.ring(0, 1);
  std::vector<std::uint8_t> message(100000);
  for (std::size_t i = 0; i < message.size(); ++i)
    message[i] = static_cast<std::uint8_t>(i % 251);
  std::vector<std::uint8_t> received;
  std::size_t pushed = 0;
  while (received.size() < message.size()) {
    pushed += ring.try_push(message.data() + pushed, message.size() - pushed);
    std::uint8_t tmp[1024];
    const std::size_t n = ring.try_pop(tmp, sizeof(tmp));
    received.insert(received.end(), tmp, tmp + n);
  }
  EXPECT_EQ(received, message);
}

TEST(ShmSegment, CreateAttachSeesSameControlState) {
  SegmentFixture f(4, 2);
  mpp::shm::Segment other = mpp::shm::Segment::attach(f.dir + "/shm");
  EXPECT_EQ(other.ranks(), 4);
  EXPECT_EQ(other.topology().ranks_per_node, 2);
  EXPECT_TRUE(other.is_alive(3));
  f.seg.mark_dead(3);
  EXPECT_FALSE(other.is_alive(3));          // both mappings see the death
  EXPECT_EQ(other.failure_epoch(), 1);
  f.seg.mark_dead(3);                        // idempotent
  EXPECT_EQ(other.failure_epoch(), 1);
  other.beat(1);
  EXPECT_GE(f.seg.heartbeat_of(1), 1u);
}

TEST(ShmSegment, RingTopologyFollowsNodePlacement) {
  SegmentFixture f(4, 2);
  EXPECT_TRUE(f.seg.ring(0, 1).valid());    // same node
  EXPECT_TRUE(f.seg.ring(2, 3).valid());
  EXPECT_FALSE(f.seg.ring(1, 2).valid());   // cross node → TCP
  EXPECT_FALSE(f.seg.ring(0, 3).valid());
  EXPECT_FALSE(f.seg.ring(1, 1).valid());   // no self ring
}

TEST(ShmSegment, AttachRejectsGarbageFile) {
  const std::string dir = temp_dir();
  ASSERT_TRUE(util::io::write_file_atomic(dir + "/shm", "not a segment"));
  EXPECT_THROW(mpp::shm::Segment::attach(dir + "/shm"), util::CheckError);
  remove_tree(dir);
}

// --- backoff policy ---------------------------------------------------------

TEST(Backoff, ExponentialDelaysAreCapped) {
  namespace b = mpp::proc::backoff;
  EXPECT_DOUBLE_EQ(b::delay_ms(0), 0.0);   // first attempt is immediate
  EXPECT_DOUBLE_EQ(b::delay_ms(1), 5.0);
  EXPECT_DOUBLE_EQ(b::delay_ms(2), 10.0);
  EXPECT_DOUBLE_EQ(b::delay_ms(3), 20.0);
  EXPECT_DOUBLE_EQ(b::delay_ms(6), 100.0);  // capped
  EXPECT_DOUBLE_EQ(b::delay_ms(20), 100.0);
}

// --- file-backed checkpoint store -------------------------------------------

TEST(FileStore, SurvivesReopenAndIsSharedAcrossInstances) {
  const std::string dir = temp_dir();
  core::SuperstepCheckpoint c;
  c.phase = "integrals";
  c.task = 2;
  c.data = {1.5, -2.25, 3.0};
  {
    core::CheckpointStore store(dir + "/ckpt");
    store.put_checkpoint(c);
    EXPECT_EQ(store.size(), 1u);
  }
  // A different process would open its own store over the same directory.
  core::CheckpointStore other(dir + "/ckpt");
  EXPECT_TRUE(other.contains(core::CheckpointStore::key_of("integrals", 2)));
  const auto got = other.get_checkpoint("integrals", 2);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, c);
  other.clear();
  EXPECT_EQ(other.size(), 0u);
  remove_tree(dir);
}

TEST(FileStore, CorruptFileReadsAsMissing) {
  const std::string dir = temp_dir();
  core::CheckpointStore store(dir + "/ckpt");
  store.put("born/1", "definitely not a checkpoint");
  EXPECT_TRUE(store.contains("born/1"));
  EXPECT_FALSE(store.get_checkpoint("born", 1).has_value());
  remove_tree(dir);
}

// --- whole jobs over the real transport (fork/exec + SIGKILL) ---------------

TEST(ProcJob, PingPongAcrossShmAndTcp) {
  // 4 ranks, 2 per node: ranks 0-1 and 2-3 talk over shm rings, the
  // cross-node pairs over TCP. Workers self-validate and exit nonzero on
  // any mismatch.
  const auto r = mpp::launch::run_job(self_job(4, "pingpong"));
  EXPECT_FALSE(r.timed_out);
  EXPECT_TRUE(r.survivors_clean());
  for (const auto& rank : r.ranks) EXPECT_EQ(rank.exit_code, 0);
  remove_tree(r.job_dir);
}

TEST(ProcJob, ElasticMatchesInThreadTransportBitForBit) {
  // The transport-boundary contract: the same elastic pipeline, once over
  // in-thread mailboxes and once over real processes + shm/TCP, produces
  // the same Epol bits.
  const core::GBEngine engine = make_worker_engine();
  core::ElasticConfig cfg;
  cfg.hybrid.ranks = 3;
  const double ref = core::run_hybrid_elastic(engine, cfg).epol;
  std::uint64_t ref_bits = 0;
  std::memcpy(&ref_bits, &ref, sizeof(ref_bits));

  const auto r = mpp::launch::run_job(self_job(3, "elastic"));
  EXPECT_FALSE(r.timed_out);
  EXPECT_TRUE(r.survivors_clean());
  for (int rank = 0; rank < 3; ++rank) {
    const auto bits = epol_bits(r.job_dir, rank);
    ASSERT_TRUE(bits.has_value()) << "rank " << rank;
    EXPECT_EQ(*bits, ref_bits) << "rank " << rank;
  }
  remove_tree(r.job_dir);
}

TEST(ProcJob, SigkilledRanksRecoverBitIdentically) {
  // Real process kills: SIGKILL ranks 2 and 3 once the checkpoint store
  // shows progress (provably mid-run), and require the survivors to
  // reproduce the exact fault-free bits. This is the ctest-side version
  // of the CI proc-chaos gate.
  const core::GBEngine engine = make_worker_engine();
  core::ElasticConfig cfg;
  cfg.hybrid.ranks = 4;
  const double ref = core::run_hybrid_elastic(engine, cfg).epol;
  std::uint64_t ref_bits = 0;
  std::memcpy(&ref_bits, &ref, sizeof(ref_bits));

  auto spec = self_job(4, "elastic");
  spec.kills.push_back({.rank = 3, .after_ms = 0.0, .after_store_files = 1});
  spec.kills.push_back({.rank = 2, .after_ms = 0.0, .after_store_files = 2});
  const auto r = mpp::launch::run_job(spec);
  EXPECT_FALSE(r.timed_out);
  EXPECT_TRUE(r.survivors_clean());
  EXPECT_EQ(r.kills_delivered, 2);
  int checked = 0;
  for (int rank = 0; rank < 4; ++rank) {
    if (r.ranks[rank].killed_by_chaos) continue;
    const auto bits = epol_bits(r.job_dir, rank);
    ASSERT_TRUE(bits.has_value()) << "rank " << rank;
    EXPECT_EQ(*bits, ref_bits) << "rank " << rank;
    ++checked;
  }
  EXPECT_GE(checked, 2);  // ranks 0 and 1 always survive
  remove_tree(r.job_dir);
}

TEST(ProcJob, WorkerWithoutRendezvousEnvironmentFailsCleanly) {
  // Direct child invocation outside a job: exit 2, no crash, no hang.
  // (Resolve the real binary path — /proc/self/exe inside system()'s
  // shell child would name the shell, not this test.)
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  ASSERT_GT(n, 0);
  self[n] = '\0';
  const std::string cmd =
      "'" + std::string(self) + "' --worker-child pingpong 2>/dev/null";
  const int rc = std::system(cmd.c_str());
  ASSERT_NE(rc, -1);
  EXPECT_EQ(WEXITSTATUS(rc), 2);
}

// --- custom main: worker-child dispatch -------------------------------------

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "--worker-child")
    return worker_child_main(argv[2]);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
