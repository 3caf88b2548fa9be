#include "octgb/mpp/launch.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <dirent.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "octgb/mpp/proc.hpp"
#include "octgb/mpp/shm.hpp"
#include "octgb/util/check.hpp"

namespace octgb::mpp::launch {

namespace {

using Clock = std::chrono::steady_clock;

/// Default deadline handed to every rank's blocking receives: on a real
/// transport an unbounded receive from a SIGKILLed peer could otherwise
/// wait forever between failure-epoch checks.
constexpr double kRankDeadlineMs = 2000.0;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

std::string make_job_dir() {
  const char* tmp = std::getenv("TMPDIR");
  std::string templ = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  templ += "/octgb-job.XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  OCTGB_CHECK_MSG(::mkdtemp(buf.data()) != nullptr,
                  "cannot create job directory from " << templ);
  return std::string(buf.data());
}

void bind_to_core(int rank) {
#ifdef __linux__
  // Block placement: node n owns the contiguous core block starting at
  // n * ranks_per_node, and rank r takes its in-node slot within it —
  // intra-node peers land on neighbouring cores (shared LLC), like a
  // NUMA-aware block scheduler. Wraps modulo the actual core count.
  const long ncores = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (ncores <= 0) return;
  const int core = rank % static_cast<int>(ncores);
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
#else
  (void)rank;
#endif
}

/// Checkpoint files currently in the job's store (progress observable
/// for store-triggered kills).
int count_store_files(const std::string& job_dir) {
  DIR* d = ::opendir((job_dir + "/ckpt").c_str());
  if (d == nullptr) return 0;
  int n = 0;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() > 3 && name.compare(name.size() - 3, 3, ".ck") == 0)
      ++n;
  }
  ::closedir(d);
  return n;
}

[[noreturn]] void exec_rank(const JobSpec& spec, const std::string& dir,
                            int rank) {
  ::setenv(proc::kEnvRank, std::to_string(rank).c_str(), 1);
  ::setenv(proc::kEnvSize, std::to_string(spec.ranks).c_str(), 1);
  ::setenv(proc::kEnvDir, dir.c_str(), 1);
  if (spec.bind_cores) bind_to_core(rank);
  std::vector<char*> argv;
  argv.reserve(spec.command.size() + 1);
  for (const auto& arg : spec.command)
    argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  ::execvp(argv[0], argv.data());
  ::_exit(127);  // exec failed
}

}  // namespace

bool JobResult::survivors_clean() const {
  return std::all_of(ranks.begin(), ranks.end(), [](const RankResult& r) {
    return r.killed_by_chaos || r.clean();
  });
}

JobResult run_job(const JobSpec& spec) {
  OCTGB_CHECK_MSG(spec.ranks >= 1, "job needs >= 1 rank");
  OCTGB_CHECK_MSG(!spec.command.empty(), "job needs a command");
  for (const KillSpec& k : spec.kills)
    OCTGB_CHECK_MSG(k.rank >= 0 && k.rank < spec.ranks,
                    "kill targets invalid rank " << k.rank);

  JobResult result;
  result.job_dir = make_job_dir();
  result.ranks.resize(spec.ranks);

  shm::Segment::Options seg_opts;
  seg_opts.ranks = spec.ranks;
  seg_opts.topology = spec.topology;
  seg_opts.default_deadline_ms = kRankDeadlineMs;
  shm::Segment seg =
      shm::Segment::create(result.job_dir + "/shm", seg_opts);

  const auto t0 = Clock::now();
  std::vector<pid_t> pids(spec.ranks, -1);
  for (int r = 0; r < spec.ranks; ++r) {
    const pid_t pid = ::fork();
    OCTGB_CHECK_MSG(pid >= 0, "fork failed for rank " << r);
    if (pid == 0) exec_rank(spec, result.job_dir, r);
    pids[r] = pid;
    result.ranks[r].pid = pid;
  }

  // Chaos kills, each armed by time and/or checkpoint-store progress.
  std::vector<KillSpec> kills = spec.kills;
  std::sort(kills.begin(), kills.end(),
            [](const KillSpec& a, const KillSpec& b) {
              return a.after_ms < b.after_ms;
            });
  std::vector<bool> delivered(kills.size(), false);
  std::size_t undelivered = kills.size();
  const bool any_store_trigger =
      std::any_of(kills.begin(), kills.end(), [](const KillSpec& k) {
        return k.after_store_files >= 0;
      });
  int live = spec.ranks;
  std::vector<bool> reaped(spec.ranks, false);

  while (live > 0) {
    const double elapsed = ms_since(t0);
    const int store_files = (any_store_trigger && undelivered > 0)
                                ? count_store_files(result.job_dir)
                                : 0;
    // Deliver due kills: SIGKILL the process, then publish the death —
    // the kernel guarantees the target never runs again after the kill()
    // returns, so marking it dead immediately is safe even though the
    // zombie is reaped later.
    for (std::size_t i = 0; i < kills.size(); ++i) {
      if (delivered[i] || kills[i].after_ms > elapsed) continue;
      if (kills[i].after_store_files >= 0 &&
          store_files < kills[i].after_store_files)
        continue;
      delivered[i] = true;
      --undelivered;
      const int r = kills[i].rank;
      if (reaped[r]) continue;  // already exited on its own
      ::kill(pids[r], SIGKILL);
      result.ranks[r].killed_by_chaos = true;
      ++result.kills_delivered;
      seg.mark_dead(r);
    }
    // Reap whoever finished.
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid > 0) {
      for (int r = 0; r < spec.ranks; ++r) {
        if (pids[r] != pid || reaped[r]) continue;
        reaped[r] = true;
        --live;
        RankResult& rr = result.ranks[r];
        if (WIFSIGNALED(status)) {
          rr.term_signal = WTERMSIG(status);
          seg.mark_dead(r);
        } else if (WIFEXITED(status)) {
          rr.exit_code = WEXITSTATUS(status);
          // A clean exit 0 is a completed rank, not a failure; anything
          // else is a crash the survivors must observe.
          if (rr.exit_code != 0) seg.mark_dead(r);
        }
        break;
      }
      continue;  // more children may be reapable right away
    }
    if (elapsed > spec.timeout_ms) {
      result.timed_out = true;
      for (int r = 0; r < spec.ranks; ++r)
        if (!reaped[r]) ::kill(pids[r], SIGKILL);
      for (int r = 0; r < spec.ranks; ++r) {
        if (reaped[r]) continue;
        ::waitpid(pids[r], &status, 0);
        reaped[r] = true;
        --live;
        result.ranks[r].term_signal = SIGKILL;
        seg.mark_dead(r);
      }
      break;
    }
    // Sleep between supervision passes, but never past the next kill time
    // (chaos schedules need ~ms accuracy to hit mid-phase windows); a
    // pending store-triggered kill keeps the poll tight.
    double sleep_ms = 2.0;
    for (std::size_t i = 0; i < kills.size(); ++i) {
      if (delivered[i]) continue;
      sleep_ms = std::min(sleep_ms,
                          std::max(0.0, kills[i].after_ms - elapsed));
    }
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        std::max(0.1, sleep_ms)));
  }

  result.wall_ms = ms_since(t0);
  return result;
}

}  // namespace octgb::mpp::launch
