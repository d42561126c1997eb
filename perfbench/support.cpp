#include "support.hpp"

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "svc/request.hpp"

namespace perfbench {

Percentile percentile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q > 0.0 && q < 1.0)) {
    throw std::runtime_error("percentile: no samples or q outside (0,1)");
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  Percentile p;
  p.value = samples[lo] + (pos - static_cast<double>(lo)) *
                              (samples[hi] - samples[lo]);
  p.samples = samples.size();
  // Samples ranked above q, less any that tie with the value.
  const auto ranked_above = static_cast<std::size_t>(
      static_cast<double>(samples.size()) * (1.0 - q) + 1e-9);
  p.beyond = std::min(
      ranked_above,
      static_cast<std::size_t>(
          samples.end() -
          std::upper_bound(samples.begin(), samples.end(), p.value)));
  if (p.beyond < kMinBeyond) {
    std::ostringstream msg;
    msg << "refusing p" << q * 100 << ": " << p.samples << " samples leave "
        << p.beyond << " beyond it (need " << kMinBeyond << ")";
    throw std::runtime_error(msg.str());
  }
  return p;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::size_t min_samples(double q, std::size_t granule) {
  // The epsilon keeps 10 / 0.1 from rounding up to 101.
  const auto n = static_cast<std::size_t>(
      std::ceil(static_cast<double>(kMinBeyond) / (1.0 - q) - 1e-9));
  return (n + granule - 1) / granule * granule;
}

namespace {

std::string proc_path(pid_t pid, const char* leaf) {
  return "/proc/" + std::to_string(pid) + "/" + leaf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

double thread_cpu_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Spins until this process has used `seconds` more CPU.
void burn_cpu(double seconds) {
  const double until = thread_cpu_now() + seconds;
  volatile std::uint64_t sink = 0;
  while (thread_cpu_now() < until) {
    for (int i = 0; i < 10000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  }
}

}  // namespace

double proc_cpu_seconds(pid_t pid) {
  const std::string stat = read_file(proc_path(pid, "stat"));
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("bad /proc stat");
  std::istringstream in(stat.substr(close + 1));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int f = 3; f <= 15 && (in >> field); ++f) {
    if (f == 14) utime = std::stoull(field);
    if (f == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double proc_vm_hwm_bytes(pid_t pid) {
  std::istringstream in(read_file(proc_path(pid, "status")));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0;  // the kernel's kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc status");
}

std::size_t proc_threads(pid_t pid) {
  std::size_t n = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(proc_path(pid, "task"))) {
    (void)e;
    ++n;
  }
  return n;
}

std::string fs_type(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794c7630UL: return "overlay";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x2fc12fc1UL: return "zfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    case 0x01021997UL: return "9p";
    default: break;
  }
  std::ostringstream hex;
  hex << "0x" << std::hex << static_cast<unsigned long>(st.f_type);
  return hex.str();
}

namespace {

/// (steal, total) jiffies of all CPUs, from the first line of /proc/stat.
std::pair<std::uint64_t, std::uint64_t> host_ticks() {
  std::istringstream in(read_file("/proc/stat"));
  std::string cpu;
  in >> cpu;
  std::uint64_t total = 0, steal = 0, v = 0;
  // user nice system idle iowait irq softirq steal
  for (int f = 0; f < 8 && (in >> v); ++f) {
    total += v;
    if (f == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace

void Window::open(pid_t pid) {
  pid_ = pid;
  std::tie(steal0_, total0_) = host_ticks();
  cpu0_ = proc_cpu_seconds(pid);
  t0_ = std::chrono::steady_clock::now();
}

void Window::close() {
  wall_s_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0_)
                .count();
  cpu_s_ = proc_cpu_seconds(pid_) - cpu0_;
  const auto [steal, total] = host_ticks();
  steal_frac_ = total > total0_ ? static_cast<double>(steal - steal0_) /
                                      static_cast<double>(total - total0_)
                                : 0.0;
}

std::uint64_t base_seed(std::uint64_t run_seed, std::uint64_t index) {
  // splitmix64's finalizer is a bijection of 64-bit words, so distinct
  // (run_seed, index) pairs can never share a base seed.
  std::uint64_t z = (run_seed << 24) | index;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t warmup_seed(std::size_t circuit) {
  return base_seed(0, kWarmupIndex + circuit);
}

Request make_request(std::string id, const char* circuit,
                     std::uint64_t seed, bool timing) {
  Request r;
  r.circuit = circuit;
  r.base_seed = seed;
  r.line = "{\"schema\":2,\"id\":\"" + id + "\",\"circuit\":\"" + r.circuit +
           "\",\"base_seed\":" + std::to_string(seed) +
           (timing ? ",\"timing\":true}" : "}");
  r.id = std::move(id);
  return r;
}

Request global_request(std::uint64_t run_seed, std::uint64_t g,
                       const std::string& id, bool timing) {
  return make_request(id, kRotation[g % kRotation.size()],
                      base_seed(run_seed, g), timing);
}

namespace {

/// NDJSON of the first `count` global requests of a run.
std::string render(std::uint64_t run_seed, std::size_t count) {
  std::string out;
  for (std::size_t g = 0; g < count; ++g) {
    out += global_request(run_seed, g, std::to_string(g), false).line;
    out += '\n';
  }
  return out;
}

}  // namespace

std::vector<std::string> self_test() {
  std::vector<std::string> fail;
  const auto check = [&fail](bool ok, const std::string& what) {
    if (!ok) fail.push_back(what);
  };
  const auto refused = [](std::vector<double> v, double q) {
    try {
      (void)percentile(std::move(v), q);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const auto iota = [](std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
    return v;
  };

  // Percentiles: interpolation, and refusal below ten samples beyond.
  const Percentile p90 = percentile(iota(100), 0.9);
  check(std::abs(p90.value - 90.1) < 1e-9 && p90.beyond == 10 &&
            p90.samples == 100,
        "p90 of 1..100 is 90.1 with 10 beyond");
  check(refused(iota(99), 0.9).find("99 samples") != std::string::npos,
        "p90 of 99 samples is refused and names the sample count");
  check(refused(iota(999), 0.99).find("999 samples") != std::string::npos,
        "p99 of 999 samples is refused");
  check(refused(iota(1000), 0.99).empty(), "p99 of 1000 samples is allowed");
  check(refused(iota(19), 0.5).find("19 samples") != std::string::npos &&
            refused(iota(20), 0.5).empty(),
        "p50 needs 20 samples");
  check(refused(std::vector<double>(200, 1.0), 0.5).find("0 beyond") !=
            std::string::npos,
        "ties leave nothing beyond");
  check(min_samples(0.9, 6) == 102 && min_samples(0.99, 6) == 1002 &&
            min_samples(0.5, 3) == 21,
        "min_samples rounds to whole granules");
  for (const double q : {0.5, 0.9, 0.99}) {
    check(refused(iota(min_samples(q, 6)), q).empty(),
          "min_samples(" + std::to_string(q) + ") is enough");
  }
  check(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5,
        "median of odd and even counts");

  // /proc readers: a window sees only the CPU burnt inside it.
  const pid_t self = ::getpid();
  burn_cpu(0.06);  // "set-up" before the window
  Window w;
  w.open(self);
  burn_cpu(0.10);
  w.close();
  check(w.cpu_s() > 0.07 && w.cpu_s() < 0.14 && w.wall_s() >= 0.09 &&
            w.steal_frac() >= 0.0 && w.steal_frac() <= 1.0,
        "window CPU excludes set-up (got " + std::to_string(w.cpu_s()) +
            " s)");
  const double hwm0 = proc_vm_hwm_bytes(self);
  {
    std::vector<char> touch(48u << 20);
    std::memset(touch.data(), 1, touch.size());
    check(proc_vm_hwm_bytes(self) - hwm0 > 40.0 * (1 << 20),
          "VmHWM rises with a 48 MiB allocation");
  }
  const std::size_t threads0 = proc_threads(self);
  {
    std::promise<void> release;
    std::thread t([f = release.get_future()]() mutable { f.wait(); });
    check(proc_threads(self) == threads0 + 1, "a new thread shows in /task");
    release.set_value();
    t.join();
  }

  // Generator: same seed, same bytes; different seeds, disjoint seed sets.
  check(render(7, 600) == render(7, 600), "same seed renders the same bytes");
  check(render(7, 600) != render(8, 600), "different seeds differ");
  std::unordered_set<std::uint64_t> seen;
  for (const std::uint64_t run : {std::uint64_t{0}, std::uint64_t{1},
                                   std::uint64_t{2}, kMaxRunSeed}) {
    for (std::uint64_t g = 0; g < 5000; ++g) {
      check(seen.insert(base_seed(run, g)).second, "base seeds collide");
    }
  }
  for (std::size_t c = 0; c < kCircuits.size(); ++c) {
    check(seen.count(warmup_seed(c)) == 0, "warm-up seed is outside runs");
  }
  const Request r = global_request(5, 7, "x", false);
  const rls::svc::CampaignRequest parsed =
      rls::svc::parse_request(r.line, "self-test");
  check(parsed.circuit == "s400" && parsed.id == "x" &&
            parsed.options.p2.base_seed == r.base_seed && !parsed.timing &&
            parsed.canonical_json() ==
                [&] {
                  rls::svc::CampaignRequest d;
                  d.id = "x";
                  d.circuit = "s400";
                  d.options.p2.base_seed = r.base_seed;
                  return d.canonical_json();
                }(),
        "a request line is the default request with its base seed");
  return fail;
}

}  // namespace perfbench
