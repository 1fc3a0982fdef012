#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "num/parallel.h"
#include "num/rng.h"
#include "num/simd/backend.h"
#include "workloads.h"

namespace perfbench {

std::int64_t now_ns() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint64_t mix3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t z = zss::num::splitmix64_mix(a + zss::num::kSplitMix64Golden);
  z = zss::num::splitmix64_mix(z ^ (b + zss::num::kSplitMix64Golden));
  return zss::num::splitmix64_mix(z ^ (c + zss::num::kSplitMix64Golden));
}

double unit(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return static_cast<double>(mix3(a, b, c) >> 11) * 0x1.0p-53;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kList = {
      {"tokens_per_s", "lane-steps/s"}, {"latency_p50_us", "us"},
      {"latency_p99_us", "us"},         {"max_rate_rps", "req/s"},
      {"success_frac", "ratio"},        {"setup_s", "s"},
      {"recovery_s", "s"},              {"peak_rss_mb", "MB"},
  };
  return kList;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kList = [] {
    std::vector<MetricSpec> m = {
        {"num.wx_gemm_us", "us"},
        {"num.wx_gemm_gmacs", "GMAC/s"},
        {"num.wx_gemm_bytes", "B_computed"},
        {"num.wh_accum_us", "us"},
        {"num.wh_accum_gmacs", "GMAC/s"},
        {"num.wh_accum_bytes", "B_computed"},
        {"num.i8.wx_gemm_us", "us"},
        {"num.i8.wx_gemm_gmacs", "GMAC/s"},
        {"num.i8.wx_gemm_bytes", "B_computed"},
        {"num.i8.wh_accum_us", "us"},
        {"num.i8.wh_accum_gmacs", "GMAC/s"},
        {"num.i8.wh_accum_bytes", "B_computed"},
        {"num.triad_gbs", "GB/s"},
        {"num.wh_accum_roofline_frac", "ratio"},
        {"sparse.encode_us", "us"},
        {"core.step_us", "us"},
    };
    static const char* const kLayerKeys[][2] = {
        {"step_us", "us"},         {"wx_us", "us"},
        {"wh_us", "us"},           {"encode_us", "us"},
        {"other_us", "us"},        {"lane_sparsity", "ratio"},
    };
    static std::vector<std::string> names;  // backing store for c_str()
    names.reserve(3 * std::size(kLayerKeys));
    for (int l = 0; l < 3; ++l) {
      for (const auto& k : kLayerKeys) {
        names.push_back("core.layer" + std::to_string(l) + "." + k[0]);
        m.push_back({names.back().c_str(), k[1]});
      }
    }
    const std::vector<MetricSpec> rest = {
        {"core.layers_residual_frac", "ratio"},
        {"core.effectual_macs_per_token", "MAC"},
        {"core.dense_step_us", "us"},
        {"core.wall_speedup", "x"},
        {"core.state_mac_speedup", "x"},
        {"core.total_mac_speedup", "x"},
        {"serve.inproc_latency_p50_us", "us"},
        {"frontend.overhead_p50_us", "us"},
        {"serve.queue_wait_p50_us", "us"},
        {"serve.queue_wait_p99_us", "us"},
        {"serve.service_p50_us", "us"},
        {"serve.service_p99_us", "us"},
        {"serve.commit_p50_us", "us"},
        {"serve.mean_batch", "lanes"},
        {"serve.submit_us", "us"},
        {"serve.shard.busy_frac", "ratio"},
        {"serve.shard.cpu_us_per_req", "us"},
        {"serve.protocol.parse_ns", "ns"},
        {"serve.protocol.format_ns", "ns"},
        {"serve.shed", "count"},
        {"serve.timeouts", "count"},
        {"gen.offered_rps", "req/s"},
        {"gen.lateness_p99_us", "us"},
        {"gen.lateness_max_us", "us"},
        {"store.journal.bytes_per_step", "B"},
        {"store.journal.records_per_commit", "count"},
        {"store.journal.append_us", "us"},
        {"store.journal.commit_us", "us"},
        {"store.spill_us", "us"},
        {"store.restore_us", "us"},
        {"store.hot_rate", "ratio"},
        {"store.warm_rate", "ratio"},
        {"store.cold_rate", "ratio"},
        {"store.recovered_records_per_s", "1/s"},
        {"trace.overhead_frac", "ratio"},
        {"trace.self_frac.serve", "ratio"},
        {"trace.self_frac.core", "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return kList;
}

void Report::check(bool ok, const std::string& what) {
  ++checks;
  std::printf("# check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) failed_checks.push_back(what);
}

void Report::note(const std::string& line) const {
  std::printf("# %s\n", line.c_str());
}

bool Report::print_result(const std::vector<MetricSpec>& metrics, bool zero_fill) {
  const std::uint64_t failed_total = failed + failed_checks.size();
  const std::uint64_t attempted_total = std::max<std::uint64_t>(attempted + checks, 1);
  values_["success_frac"] = 1.0 - static_cast<double>(failed_total) /
                                      static_cast<double>(attempted_total);
  std::string out;
  bool complete = true;
  char buf[128];
  for (const MetricSpec& m : metrics) {
    const auto it = values_.find(m.name);
    if (it == values_.end() && !zero_fill) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", m.name);
      complete = false;
    }
    const double v = it == values_.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name);
      complete = false;
    }
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.empty() ? "" : ", ", m.name,
                  std::isfinite(v) ? v : 0.0, m.unit);
    out += buf;
  }
  const bool correct = complete && failed_checks.empty() && failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(attempted_total),
      static_cast<unsigned long long>(failed_total), out.c_str());
  std::fflush(stdout);
  return correct;
}

std::int32_t Tracer::add(const char* name, const char* layer,
                         std::int32_t parent, std::int64_t start_ns,
                         std::int64_t end_ns, std::int64_t request) {
  if (spans_.size() == spans_.capacity()) return -1;  // never reallocate
  spans_.push_back({name, layer, start_ns, end_ns, parent, request});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::int32_t Tracer::begin(const char* name, const char* layer,
                           std::int32_t parent, std::int64_t request) {
  return add(name, layer, parent, now_ns(), 0, request);
}

void Tracer::end(std::int32_t id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

std::map<std::string, double> Tracer::self_ns_by_layer() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    out[spans_[i].layer] += std::max(0.0, dur - child_ns[i]);
  }
  return out;
}

double Tracer::median_us(std::string_view name) const {
  std::vector<double> d;
  for (const Span& s : spans_) {
    if (name == s.name) d.push_back(ns_to_us(s.end_ns - s.start_ns));
  }
  return median(d);
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id\tparent\trequest\tlayer\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.request << '\t' << s.layer
        << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

void print_metadata(const Options& opt, int worker_threads) {
  std::printf(
      "# meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"cpu\": \"%s\", \"nproc\": %ld, "
      "\"kernel_backend\": \"%s\", \"kernel_threads\": %d, "
      "\"worker_threads\": %d, \"pinning\": \"none\", \"source\": \"%s\", "
      "\"build_type\": \"%s\"}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, json_escape(cpu_model()).c_str(),
      sysconf(_SC_NPROCESSORS_ONLN),
      zss::num::simd::active_backend().name, zss::num::num_threads(),
      worker_threads, json_escape(opt.source_id).c_str(),
      json_escape(opt.build_type).c_str());
}

void set_self_fractions(const Tracer& run, Report& rep) {
  const auto self = run.self_ns_by_layer();
  double total = 0.0;
  for (const auto& [layer, ns] : self) total += ns;
  for (const char* layer : {"serve", "core"}) {
    const auto it = self.find(layer);
    rep.set(std::string("trace.self_frac.") + layer,
            it == self.end() || total <= 0.0 ? 0.0 : it->second / total);
  }
}

void write_traces(const Options& opt, std::initializer_list<const Tracer*> tracers,
                  Report& rep) {
  int i = 0;
  for (const Tracer* t : tracers) {
    const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "." + std::to_string(i++) + ".tsv";
    if (t->write(path)) {
      rep.note("spans written to " + path + " (" + std::to_string(t->spans().size()) + ")");
    } else {
      rep.note("could not write " + path);
    }
  }
}

}  // namespace perfbench
