#include "common.hpp"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <ctime>

#include "crypto/cpu.hpp"
#include "trace/build_info.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::vector<std::uint32_t> make_assoc_ids(std::uint64_t seed,
                                          std::size_t count) {
  Rng rng{mix64(seed ^ 0xa550c1d5ull)};
  std::set<std::uint32_t> seen;
  std::vector<std::uint32_t> ids;
  ids.reserve(count);
  while (ids.size() < count) {
    const auto id = static_cast<std::uint32_t>(rng.next());
    if (id != 0 && seen.insert(id).second) ids.push_back(id);
  }
  return ids;
}

void fill_bytes(std::uint64_t seed, std::uint64_t msg_id, std::uint8_t* out,
                std::size_t n) noexcept {
  std::uint64_t state = mix64(seed) ^ mix64(msg_id + 0x5eedull);
  for (std::size_t i = 0; i < n; i += 8) {
    state = mix64(state);
    const std::size_t take = std::min<std::size_t>(8, n - i);
    std::memcpy(out + i, &state, take);
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void LogHistogram::add(double v) noexcept {
  int e = 0;
  const double m = std::frexp(v > 0 ? v : 0, &e);  // v = m * 2^e, m in [0.5, 1)
  int idx = 0;
  if (m > 0) {
    const int exp = std::clamp(e - kMinExp, 0, kExponents - 1);
    const int sub = std::clamp(static_cast<int>((m - 0.5) * 2 * kSub), 0,
                               kSub - 1);
    idx = exp * kSub + sub;
  }
  ++buckets_[static_cast<std::size_t>(idx)];
  ++count_;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return std::nan("");
  const double rank = q * static_cast<double>(count_ - 1);
  double seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const double n = buckets_[i];
    if (n == 0 || seen + n <= rank) {
      seen += n;
      continue;
    }
    const int exp = static_cast<int>(i) / kSub + kMinExp;
    const int sub = static_cast<int>(i) % kSub;
    const double lo = std::ldexp(0.5 + sub / (2.0 * kSub), exp);
    const double hi = std::ldexp(0.5 + (sub + 1) / (2.0 * kSub), exp);
    return lo + (hi - lo) * ((rank - seen + 0.5) / n);
  }
  return std::nan("");
}

void Slices::start(double elapsed, std::uint64_t ops, double cpu_s) {
  t0_ = elapsed;
  ops0_ = ops;
  cpu0_ = cpu_s;
  started_ = true;
}

void Slices::close(double elapsed, std::uint64_t ops, double cpu_s) {
  const double n = static_cast<double>(ops - ops0_);
  rates_.push_back(n / (elapsed - t0_));
  if (n > 0) cpu_per_op_.push_back((cpu_s - cpu0_) / n);
  start(elapsed, ops, cpu_s);
}

std::string Slices::rates_line() const {
  std::string out;
  for (const double r : rates_) {
    out += ' ';
    out += std::to_string(static_cast<long long>(r));
  }
  return out;
}

// ---------------------------------------------------------------- report --

void Report::declared(const std::string& json_name, const std::string& name,
                      double value, const std::string& unit,
                      std::uint64_t samples, const std::string& note) {
  metrics_.push_back(Metric{name, json_name, value, unit, samples, note});
}

void Report::info(const std::string& name, double value,
                  const std::string& unit, std::uint64_t samples,
                  const std::string& note) {
  metrics_.push_back(Metric{name, "", value, unit, samples, note});
}

void Report::line(const std::string& text) { lines_.push_back(text); }

void Report::error(const std::string& what) { errors_.push_back(what); }

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::print(const std::string& workload, bool traced) const {
  std::printf("# perfbench workload=%s traced=%d\n", workload.c_str(),
              traced ? 1 : 0);
  std::printf("# fingerprint: %s\n", fingerprint().c_str());
  if (!optimized_build()) {
    std::printf("# WARNING: built without optimisation; figures are not "
                "comparable\n");
  }
  for (const auto& l : lines_) std::printf("%s\n", l.c_str());
  for (const auto& m : metrics_) {
    std::printf("metric %-40s %18.6f %-6s n=%-10llu%s%s%s%s\n",
                m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples),
                m.json_name.empty() ? "" : " [json ",
                m.json_name.c_str(), m.json_name.empty() ? "" : "]",
                m.note.empty() ? "" : ("  " + m.note).c_str());
  }
  for (const auto& e : errors_) std::printf("CHECK FAILED: %s\n", e.c_str());
  const double ratio =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("result: correct=%s attempted=%llu failed=%llu fail_ratio=%s\n",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              number(ratio).c_str());

  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics_) {
    if (m.json_name.empty()) continue;
    if (!first) json += ", ";
    first = false;
    json += '"';
    json += json_escape(m.json_name);
    json += "\": {\"value\": ";
    json += number(std::isfinite(m.value) ? m.value : 0.0);
    json += ", \"unit\": \"";
    json += json_escape(m.unit);
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ----------------------------------------------------------------- spans --

std::uint16_t SpanLog::name_id(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

void SpanLog::merge(const SpanLog& other) {
  std::vector<std::uint16_t> remap(other.names_.size());
  for (std::size_t i = 0; i < other.names_.size(); ++i) {
    remap[i] = name_id(other.names_[i]);
  }
  const auto base = static_cast<std::uint32_t>(spans_.size());
  for (const Span& s : other.spans_) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      continue;
    }
    Span copy = s;
    copy.name = remap[s.name];
    if (s.parent != kNoParent) copy.parent = s.parent + base;
    spans_.push_back(copy);
  }
  dropped_ += other.dropped_;
}

std::vector<SpanLog::LayerTime> SpanLog::layer_times() const {
  std::vector<LayerTime> out(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) out[i].name = names_[i];
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent && s.parent < spans_.size()) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    LayerTime& lt = out[s.name];
    ++lt.spans;
    lt.total_ns += d;
    lt.self_ns += d - child_ns[i];
  }
  return out;
}

bool SpanLog::write_csv(const std::string& path,
                        const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# %s\n# spans=%zu dropped=%llu\nname,id,parent,start_ns,"
               "end_ns\n",
               header.c_str(), spans_.size(),
               static_cast<unsigned long long>(dropped_));
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%llu,%lld,%llu,%llu\n", names_[s.name].c_str(),
                 static_cast<unsigned long long>(s.id),
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------------ /proc --

pid_t current_tid() noexcept {
  return static_cast<pid_t>(::syscall(SYS_gettid));
}

std::vector<pid_t> list_tids() {
  std::vector<pid_t> tids;
  if (DIR* d = ::opendir("/proc/self/task")) {
    while (const dirent* e = ::readdir(d)) {
      if (e->d_name[0] >= '0' && e->d_name[0] <= '9') {
        tids.push_back(static_cast<pid_t>(std::atol(e->d_name)));
      }
    }
    ::closedir(d);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::optional<ThreadUsage> thread_usage(pid_t tid) {
  const std::string base = "/proc/self/task/" + std::to_string(tid);
  std::ifstream stat(base + "/stat");
  std::string content;
  if (!std::getline(stat, content)) return std::nullopt;
  // Fields after the parenthesised command name; utime/stime are the 14th
  // and 15th fields overall, i.e. the 12th/13th after ')'.
  const auto close = content.rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream rest(content.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  ThreadUsage u;
  u.cpu_s = static_cast<double>(utime + stime) /
            static_cast<double>(::sysconf(_SC_CLK_TCK));
  std::ifstream status(base + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
      u.invol_switches = std::stoull(line.substr(line.find(':') + 1));
    }
  }
  return u;
}

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// ------------------------------------------------------------ fingerprint --

bool optimized_build() noexcept {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

std::string fingerprint() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::string backend;
  backend += alpha::crypto::cpu_has_sha_ni() ? "sha_ni=1" : "sha_ni=0";
  backend += alpha::crypto::cpu_has_aes_ni() ? " aes_ni=1" : " aes_ni=0";
  backend += alpha::crypto::hw_acceleration_enabled() ? " hw_accel=on"
                                                       : " hw_accel=off";
  std::ostringstream out;
  out << "cpu=\"" << cpu << "\" nproc=" << std::thread::hardware_concurrency()
      << " compiler=\"" << __VERSION__ << "\" build_type="
      << PERFBENCH_BUILD_TYPE << " optimized=" << (optimized_build() ? 1 : 0)
      << " " << backend << " build_info=\""
      << alpha::trace::build_info_line() << "\"";
  return out.str();
}

}  // namespace perfbench
