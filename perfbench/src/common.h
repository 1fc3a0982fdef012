// Shared plumbing of the repo benchmark: clock, order statistics, the
// metric sheet printed as the final JSON line, the in-memory span
// recorder of traced runs, and run metadata.
//
// Nothing here calls into the library's timed paths; the workloads in
// offline.cc and serving.cc do, and they wrap every call they time in
// spans or timestamps recorded here — the library itself is unmodified.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds since the first call in this process.
std::int64_t now_ns();

inline double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// SplitMix64 of (a, b, c): the deterministic input generator. Every
/// token, arrival gap and session choice is a pure function of the
/// workload seed and its position, so the same seed gives the same
/// inputs whatever the run length.
std::uint64_t mix3(std::uint64_t a, std::uint64_t b, std::uint64_t c);

/// Uniform double in [0, 1) from mix3.
double unit(std::uint64_t a, std::uint64_t b, std::uint64_t c);

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// the sample is copied. 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/run";  // scratch files, removed at exit
  std::string trace_dir = ".bench_build/traces";
  std::string source_id = "unknown";  // content hash of src/, from run.py
  std::string build_type = "unknown";
};

/// The names, units and order of every metric the benchmark prints.
/// `end_to_end` is printed by untraced runs, `per_layer` by traced
/// runs; both lists mirror BENCHMARK.json.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// What a workload run produced: metric values by name, the attempt
/// ledger, and failed correctness checks (each one fails the run).
class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }

  /// Records a correctness check; a false `ok` fails the run and counts
  /// one failure.
  void check(bool ok, const std::string& what);
  /// Human-readable line on stdout (never the last line).
  void note(const std::string& line) const;

  std::uint64_t attempted = 0;  // requests or lane-steps, excluding checks
  std::uint64_t failed = 0;     // failed requests, excluding checks
  std::uint64_t checks = 0;
  std::vector<std::string> failed_checks;

  /// Prints the final JSON line for `metrics` (every name must be set,
  /// except per-layer names of layers the workload does not run, which
  /// print 0). Checks count as attempts; success_frac is derived here
  /// from the ledger. Returns false when the run failed or a required
  /// metric is missing.
  bool print_result(const std::vector<MetricSpec>& metrics, bool zero_fill);

 private:
  std::map<std::string, double> values_;
};

/// One span of a traced run: what ran, which library layer it belongs
/// to, when, under which parent, and for serving spans the request.
struct Span {
  const char* name = "";
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int64_t request = -1;
};

/// In-memory span store. Spans are appended (from one thread at a time)
/// into capacity reserved up front and written out when the run ends.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity) { spans_.reserve(capacity); }

  /// Appends a finished span; returns its id, or -1 once full.
  std::int32_t add(const char* name, const char* layer, std::int32_t parent,
                   std::int64_t start_ns, std::int64_t end_ns,
                   std::int64_t request = -1);
  /// Opens a span ending at end(); returns its id (-1 once full).
  std::int32_t begin(const char* name, const char* layer,
                     std::int32_t parent = -1, std::int64_t request = -1);
  void end(std::int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer: each span's duration minus the part its
  /// children cover (children of one parent never overlap here).
  std::map<std::string, double> self_ns_by_layer() const;

  /// Median duration (µs) of the spans named `name`.
  double median_us(std::string_view name) const;

  /// Writes one TSV line per span: id, parent, request, layer, name,
  /// start_ns, end_ns. False on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Peak resident set size of this process, MB.
double peak_rss_mb();

/// Prints the run metadata line ("# meta {...}"): CPU model, nproc,
/// kernel backend, kernel and worker thread counts, pinning, seed,
/// source id and build type.
void print_metadata(const Options& opt, int worker_threads);

}  // namespace perfbench
