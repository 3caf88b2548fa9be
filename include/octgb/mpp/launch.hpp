#pragma once
/// \file launch.hpp
/// Process launcher + chaos driver for the out-of-process transport
/// (DESIGN.md §2.10). The CLI wrapper is tools/octgb_launch.
///
/// run_job() plays the role ibrun/mpirun plays on a real cluster: it
/// creates a fresh job directory, initializes the shared-memory segment,
/// forks/execs one process per rank with the rendezvous environment
/// (mpp/proc.hpp), optionally pins each rank to its node's block of cores
/// (the NUMA-ish placement a block scheduler would produce), and reaps
/// exit codes. It is also the chaos driver: a KillSpec schedule delivers
/// real SIGKILLs at job-relative times, and the launcher — the only
/// reliable observer of a killed process — publishes each death into the
/// segment's failure detector (dead flag + failure-epoch bump), exactly
/// like MVAPICH2's mpirun_rsh noticing a lost rank. A rank that *exits*
/// nonzero or dies from any signal is marked dead too; a clean exit 0 is
/// not a failure.

#include <string>
#include <vector>

#include "octgb/mpp/transport.hpp"

namespace octgb::mpp::launch {

/// One scheduled chaos kill: SIGKILL `rank` once every armed trigger
/// holds — `after_ms` of job time, and (when `after_store_files >= 0`)
/// the job's checkpoint store (`<job_dir>/ckpt`) holding at least that
/// many checkpoint files. The store trigger pins kills to *observable
/// progress* instead of wall time, so a chaos schedule reliably lands
/// mid-phase no matter how fast or slow the job runs — including while
/// ranks are actively writing checkpoints (the atomic-rename torn-write
/// hardening's worst case).
struct KillSpec {
  int rank = 0;
  double after_ms = 0.0;
  int after_store_files = -1;  ///< -1 = time-only
};

/// One job to launch.
struct JobSpec {
  int ranks = 2;
  Topology topology{12};
  /// argv of the rank executable (argv[0] = path). Every rank gets the
  /// same command line; per-rank identity arrives via the environment.
  std::vector<std::string> command;
  std::vector<KillSpec> kills;
  /// Pin each rank to one core of its node's contiguous core block
  /// (wraps modulo the machine's core count; Linux only, no-op elsewhere).
  bool bind_cores = false;
  /// Whole-job watchdog; on expiry every surviving rank is SIGKILLed and
  /// the job reports timed_out.
  double timeout_ms = 120000.0;
};

/// What happened to one rank process.
struct RankResult {
  long pid = -1;
  int exit_code = -1;    ///< valid when term_signal == 0
  int term_signal = 0;   ///< nonzero when the process died from a signal
  bool killed_by_chaos = false;

  bool clean() const { return term_signal == 0 && exit_code == 0; }
};

/// Outcome of one launched job.
struct JobResult {
  std::vector<RankResult> ranks;
  int kills_delivered = 0;
  bool timed_out = false;
  double wall_ms = 0.0;
  /// The job directory (segment, port files, checkpoint store): a fresh
  /// mkdtemp under $TMPDIR, which the caller owns afterwards.
  std::string job_dir;

  /// True when every rank not killed by the chaos schedule exited 0.
  bool survivors_clean() const;
};

/// Launch, supervise, and reap one job. Blocks until every rank exited
/// (or the watchdog fired).
JobResult run_job(const JobSpec& spec);

}  // namespace octgb::mpp::launch
