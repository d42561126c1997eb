// Support code for the Table 6 serving benchmark: percentiles that refuse
// a thin tail, /proc readers for the server process, the deterministic
// request generator, and the self-tests every run executes first.
#pragma once

#include <sys/types.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ---- statistics ----

/// A reported percentile needs at least this many samples above it.
inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count it was taken from
  /// floor(n * (1 - q)), less samples tying with the value.
  std::size_t beyond = 0;
};

/// Linearly interpolated percentile (q in (0,1), position q*(n-1) of the
/// sorted samples). Throws std::runtime_error, naming the sample count,
/// when fewer than kMinBeyond samples lie beyond it.
Percentile percentile(std::vector<double> samples, double q);

/// Plain median of a small set of repetitions (no tail rule; empty -> 0).
double median(std::vector<double> v);

/// Smallest sample count whose q-percentile can have kMinBeyond samples
/// beyond it, rounded up to a multiple of `granule`.
std::size_t min_samples(double q, std::size_t granule);

// ---- /proc readers ----

/// user+system CPU seconds of a process, all threads (/proc/<pid>/stat).
double proc_cpu_seconds(pid_t pid);
/// Peak resident set (VmHWM of /proc/<pid>/status) in bytes.
double proc_vm_hwm_bytes(pid_t pid);
/// Threads of a process (entries of /proc/<pid>/task).
std::size_t proc_threads(pid_t pid);
/// Filesystem type of a path ("tmpfs", "ext4", "overlay", ... or hex).
std::string fs_type(const std::string& path);

/// Wall and CPU time of one process between open() and close(): the
/// timed phase is exactly this window, so set-up before open() and
/// teardown after close() never count.
class Window {
 public:
  void open(pid_t pid);
  void close();
  [[nodiscard]] double wall_s() const { return wall_s_; }
  [[nodiscard]] double cpu_s() const { return cpu_s_; }
  /// Share of the host's CPU time the hypervisor stole over the window
  /// (/proc/stat): wall-clock metrics of a run with high steal are slow
  /// for reasons outside the program.
  [[nodiscard]] double steal_frac() const { return steal_frac_; }

 private:
  pid_t pid_ = 0;
  std::chrono::steady_clock::time_point t0_{};
  double cpu0_ = 0.0;
  std::uint64_t steal0_ = 0, total0_ = 0;
  double wall_s_ = 0.0;
  double cpu_s_ = 0.0;
  double steal_frac_ = 0.0;
};

// ---- request generator ----

/// The circuits every workload serves (per-layer metrics are keyed by
/// these names).
inline constexpr std::array<const char*, 3> kCircuits = {"s298", "s400",
                                                         "s820"};
/// Circuit rotation of every workload. Single-thread campaign costs are
/// ~80 / ~260 / ~680 ms, and across base seeds the middle half of s400's
/// and s298's costs spans about half their median, s820's a fifth. Four
/// s820 slots in six put the median (s820's 25th percentile) and the tail
/// percentile (its 70th or 85th) inside the steadiest circuit, never on a
/// boundary between two circuits, while s298 and s400 keep their share of
/// the work.
inline constexpr std::array<const char*, 6> kRotation = {
    "s298", "s400", "s820", "s820", "s820", "s820"};

/// Run seeds must leave room for the request index (see base_seed()).
inline constexpr std::uint64_t kMaxRunSeed = (std::uint64_t{1} << 40) - 1;
/// Indices at and above this are reserved for warm-up campaigns.
inline constexpr std::uint64_t kWarmupIndex = (std::uint64_t{1} << 24) - 8;

/// base_seed of global request `index` of run `run_seed`: a bijective
/// 64-bit mix of (run_seed << 24 | index), so different run seeds give
/// disjoint base_seed sets, and the warm-up seeds (index >= kWarmupIndex,
/// run seed 0) are outside every run's timed set.
std::uint64_t base_seed(std::uint64_t run_seed, std::uint64_t index);
/// Fixed base_seed of the untimed warm-up campaign for kCircuits[circuit].
std::uint64_t warmup_seed(std::size_t circuit);

struct Request {
  std::string id;
  const char* circuit = nullptr;
  std::uint64_t base_seed = 0;
  std::string line;  ///< the NDJSON line the server receives
};

/// The paper's Table 6 request, every option at its default except the
/// base seed (and "timing" in the traced pass).
Request make_request(std::string id, const char* circuit,
                     std::uint64_t base_seed, bool timing);

/// Global request `g` of a run: circuit kRotation[g % 6], base_seed(seed, g).
Request global_request(std::uint64_t run_seed, std::uint64_t g,
                       const std::string& id, bool timing);

/// Runs every self-test; returns the failures (empty = all passed).
std::vector<std::string> self_test();

}  // namespace perfbench
