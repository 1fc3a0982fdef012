// serve_chat: open-loop traffic through the production serving path — a
// serve::Frontend on a UNIX socket in front of a 2-shard EnginePool
// (LiveServer + ShardWorker) — from one generator thread over 4
// connections.
//
// Why this workload: it serves the checked-in trained 2 x 32 char LM,
// durability off, 256 sessions. A token costs the engine almost nothing,
// so the front end, protocol, stamping lock, worker handoff and batcher
// wait set the latency.
//
// The store layer is measured in the traced run by an in-process replay
// of durable traffic: a random 1 x 512 cell (one-hot dx = 64, threshold
// calibrated to 0.9) with the write-ahead journal (sync=none) and a
// per-shard session cap below the population. Half the traffic hits a
// resident hot set, half cycles a cold population several times the
// cap, so every step appends a journal record and cold steps also spill
// and restore.
//
// Timing is client-side: each request is timed from its due time on the
// open-loop schedule to the moment its "ok" line is read, so a stall
// also charges the requests queued behind it.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "engine.h"
#include "serve/client.h"
#include "serve/frontend.h"
#include "serve/pool.h"
#include "serve/protocol.h"
#include "serve/trace.h"
#include "serve/worker.h"
#include "store/io.h"
#include "store/journal.h"
#include "store/segment_store.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace zc = zss::core;
namespace zs = zss::serve;

/// Fixed traffic settings: serve_chat's socket workload, or the durable
/// traffic of the traced store replay.
struct ServeSpec {
  bool durable = false;
  double nominal_rps = 0;
  std::vector<double> ladder;  // serve_chat: ascending, contains nominal_rps
  double limit_us = 0;         // serve_chat: p99 latency limit of a passing rung
  zn::Index sessions = 0;      // serve_chat population
  zn::Index hot = 0;           // durable: resident hot set
  zn::Index cold = 0;          // durable: cold population
  zn::Index cap = 0;           // durable: per-shard session cap
  double cold_frac = 0;        // durable: share of cold requests
};

constexpr zn::Index kShards = 2;
constexpr int kConnections = 4;
constexpr zs::SessionId kProbeSession = std::uint64_t{1} << 40;
constexpr zs::SessionId kColdBase = 1'000'000;

ServeSpec chat_spec() {
  ServeSpec s;
  // The top rung is far past capacity (its backlog grows without bound):
  // its goodput is the server's capacity. The limit sits above the p99
  // noise floor of the 4-vCPU virtual machine it was sized on, where a
  // stall of the host puts a whole segment's p99 at several ms.
  s.nominal_rps = 20'000;
  s.ladder = {10'000, 20'000, 50'000, 400'000};
  s.limit_us = 10'000;
  s.sessions = 256;
  return s;
}

ServeSpec durable_spec() {
  ServeSpec s;
  s.durable = true;
  s.nominal_rps = 1000;
  s.hot = 64;
  s.cap = 256;
  s.cold = 2048;  // 4x the pool-wide cap of 2 x 256
  s.cold_frac = 0.5;
  return s;
}

/// One open-loop phase: Poisson arrivals at `rate`, due times relative
/// to the phase start.
struct Schedule {
  std::vector<std::int64_t> due_ns;
  std::vector<zs::SessionId> session;
  std::vector<zn::Index> token;
  std::size_t size() const { return due_ns.size(); }
};

/// Generates schedules from the seed. The cold cursor carries across
/// phases, so the durable cold population keeps cycling.
class Traffic {
 public:
  Traffic(const ServeSpec& spec, std::uint64_t seed, zn::Index vocab)
      : spec_(spec), seed_(seed), vocab_(vocab) {}

  Schedule make(std::uint64_t phase, double rate, double seconds) {
    Schedule s;
    const auto n = static_cast<std::size_t>(rate * seconds);
    s.due_ns.reserve(n);
    double t = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto k = static_cast<std::uint64_t>(i);
      t += -std::log1p(-unit(seed_, phase * 8 + 1, k)) / rate * 1e9;
      s.due_ns.push_back(static_cast<std::int64_t>(t));
      const std::uint64_t pick = mix3(seed_, phase * 8 + 2, k);
      if (!spec_.durable) {
        s.session.push_back(pick % static_cast<std::uint64_t>(spec_.sessions));
      } else if (unit(seed_, phase * 8 + 3, k) >= spec_.cold_frac) {
        s.session.push_back(pick % static_cast<std::uint64_t>(spec_.hot));
      } else {
        s.session.push_back(kColdBase + cold_cursor_++ % static_cast<std::uint64_t>(spec_.cold));
      }
      s.token.push_back(static_cast<zn::Index>(mix3(seed_, phase * 8 + 4, k) %
                                               static_cast<std::uint64_t>(vocab_)));
    }
    return s;
  }

 private:
  ServeSpec spec_;
  std::uint64_t seed_;
  zn::Index vocab_;
  std::uint64_t cold_cursor_ = 0;
};

/// The served model plus the pool configuration of a workload.
struct Assets {
  StackModel model;
  zs::PoolConfig config;
};

/// Loads (serve_chat) or builds (durable traffic) the model; journal and
/// spill files go under `dir`.
bool make_assets(const ServeSpec& spec, const std::string& dir, Assets& a, std::string* error) {
  a.config.shards = kShards;
  if (!spec.durable) {
    return load_model_file("data/models/tiny_char_lm.zssm", a.model, error);
  }
  build_random_model(a.model, kModelSeed, /*vocab=*/64, /*embed_dim=*/0, /*hidden=*/512,
                     /*layers=*/1, 0.9, /*calib_steps=*/48);
  a.config.session_ttl.max_sessions = spec.cap;
  a.config.spill.dir = dir;
  a.config.spill.journal = true;
  a.config.spill.journal_sync = zss::store::JournalSync::kNone;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return !ec;
}

// ---------------------------------------------------------------------
// Socket client: one generator thread that sends on schedule and reads
// responses, over kConnections connections (a session always uses the
// same connection, so its per-session FIFO order holds).

struct PhaseResult {
  double rate = 0;
  double goodput_rps = 0;  // responses per second, first due to last response
  std::vector<double> latency_us;  // completed requests, schedule order
  std::vector<double> lateness_us;
  std::uint64_t sent = 0, ok = 0, errors = 0;
  double offered_rps = 0;
  bool aborted = false;
  double p50() const { return quantile(latency_us, 0.5); }
  double p99() const { return quantile(latency_us, 0.99); }
};

class SocketClient {
 public:
  ~SocketClient() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }

  bool connect(const std::string& path, std::string* error) {
    for (int i = 0; i < kConnections; ++i) {
      zs::ClientConn cc;
      if (!cc.connect_unix(path, error)) return false;
      std::string hi;
      if (!cc.read_line(&hi, 5000) || hi.rfind("hi ", 0) != 0) {
        if (error) *error = "no greeting";
        return false;
      }
      Conn c;
      c.fd = ::dup(cc.fd());
      conns_.push_back(std::move(c));
    }
    return true;
  }

  /// Runs one open-loop phase. Sending stops early (the phase is marked
  /// aborted) once the oldest unanswered request is `abort_us` overdue —
  /// a rung far past capacity only grows its backlog.
  PhaseResult run(const Schedule& s, double rate, double abort_us) {
    PhaseResult r;
    r.rate = rate;
    const std::size_t n = s.size();
    done_.assign(n, 0);
    due_.assign(n, 0);
    r.lateness_us.reserve(n);
    const std::int64_t t0 = now_ns() + 1'000'000;
    std::size_t next = 0, oldest = 0;
    std::int64_t first_send = 0, last_send = 0;
    ok_ = errors_ = 0;
    char line[96];
    while (true) {
      std::int64_t now = now_ns();
      while (!r.aborted && next < n && t0 + s.due_ns[next] <= now) {
        Conn& c = conns_[s.session[next] % kConnections];
        const int len = std::snprintf(line, sizeof line, "step %llu %lld\n",
                                      static_cast<unsigned long long>(s.session[next]),
                                      static_cast<long long>(s.token[next]));
        c.out.append(line, static_cast<std::size_t>(len));
        due_[next] = t0 + s.due_ns[next];
        pending_[s.session[next]].push_back(static_cast<std::uint32_t>(next));
        r.lateness_us.push_back(ns_to_us(now - due_[next]));
        if (next == 0) first_send = now;
        last_send = now;
        ++next;
      }
      flush_out();
      while (oldest < next && done_[oldest] != 0) ++oldest;
      // Done once every request sent is answered. An "err" line names no
      // request, so the count of answers closes the phase too.
      if ((next == n || r.aborted) && (oldest == next || ok_ + errors_ >= next)) break;
      if (!r.aborted && oldest < next && ns_to_us(now - due_[oldest]) > abort_us) {
        r.aborted = true;  // stop offering load; drain what was sent
      }
      if (now - t0 > 20'000'000'000LL + (n > 0 ? s.due_ns.back() : 0)) break;  // unanswered: failed
      // The generator never sleeps while it has requests to send: on a
      // virtual machine an idle vCPU can take milliseconds to wake, which
      // would read as generator lateness. Spin-polling holds the schedule
      // to microseconds.
      const std::int64_t wait_ns = next < n && !r.aborted ? 0 : 1'000'000;
      poll_read(wait_ns);
    }
    r.sent = next;
    r.ok = ok_;
    r.errors = errors_;
    r.latency_us.reserve(next);
    std::int64_t last_done = t0;
    for (std::size_t i = 0; i < next; ++i) {
      if (done_[i] != 0) r.latency_us.push_back(ns_to_us(done_[i] - due_[i]));
      last_done = std::max(last_done, done_[i]);
    }
    if (last_done > t0) {
      r.goodput_rps = static_cast<double>(ok_) / (static_cast<double>(last_done - t0) / 1e9);
    }
    if (last_send > first_send) {
      r.offered_rps = static_cast<double>(next - 1) / (static_cast<double>(last_send - first_send) / 1e9);
    }
    pending_.clear();
    return r;
  }

  /// After the server was told to stop: reads every connection until its
  /// "bye" (or EOF), so late responses are still counted.
  void finish(std::int64_t timeout_ns) {
    ok_ = errors_ = 0;
    const std::int64_t end = now_ns() + timeout_ns;
    while (now_ns() < end) {
      bool all = true;
      for (const Conn& c : conns_) all = all && (c.bye || c.fd < 0);
      if (all) break;
      poll_read(10'000'000);
    }
  }

  /// Lines read by finish(): responses that arrived after their phase.
  std::uint64_t late_lines() const { return ok_ + errors_; }
  const zs::DigestTable& digests() const { return digests_; }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    bool bye = false;
  };

  void flush_out() {
    for (Conn& c : conns_) {
      while (c.fd >= 0 && c.out_off < c.out.size()) {
        const ssize_t k = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                                 MSG_DONTWAIT | MSG_NOSIGNAL);
        if (k <= 0) break;
        c.out_off += static_cast<std::size_t>(k);
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
  }

  void poll_read(std::int64_t wait_ns) {
    pollfd fds[kConnections];
    for (int i = 0; i < kConnections; ++i) {
      fds[i].fd = conns_[static_cast<std::size_t>(i)].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[static_cast<std::size_t>(i)].out.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds, kConnections, &ts, nullptr) <= 0) return;
    char buf[1 << 16];
    for (int i = 0; i < kConnections; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns_[static_cast<std::size_t>(i)];
      const ssize_t k = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (k == 0) {
        c.bye = true;
        continue;
      }
      if (k < 0) continue;
      const std::int64_t now = now_ns();
      c.in.append(buf, static_cast<std::size_t>(k));
      std::size_t start = 0;
      for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos; start = nl + 1) {
        handle_line(c, std::string_view(c.in).substr(start, nl - start), now);
      }
      c.in.erase(0, start);
    }
  }

  void handle_line(Conn& c, std::string_view line, std::int64_t now) {
    if (line.rfind("ok ", 0) == 0) {
      // ok <session> <seq> <batch> <digest>
      unsigned long long session = 0, seq = 0, digest = 0;
      long long batch = 0;
      const std::string l(line);
      if (std::sscanf(l.c_str(), "ok %llu %llu %lld %llx", &session, &seq, &batch, &digest) != 4) {
        ++errors_;
        return;
      }
      zs::fold_row_digest(digests_[session], digest);
      ++ok_;
      auto it = pending_.find(session);
      if (it != pending_.end() && !it->second.empty()) {
        done_[it->second.front()] = now;
        it->second.pop_front();
      }
    } else if (line.rfind("err", 0) == 0) {
      ++errors_;
    } else if (line.rfind("bye", 0) == 0) {
      c.bye = true;
    }
  }

  std::vector<Conn> conns_;
  std::unordered_map<zs::SessionId, std::deque<std::uint32_t>> pending_;
  std::vector<std::int64_t> due_, done_;
  zs::DigestTable digests_;
  std::uint64_t ok_ = 0, errors_ = 0;
};

/// A running server: model, pool and front end under one lifetime.
struct Server {
  Assets assets;
  std::optional<zs::EnginePool> pool;
  std::optional<zs::Frontend> frontend;
  std::string socket;
};

/// Model load/build, pool construction, Frontend::start and one
/// request answered over a fresh connection: the set-up a user waits
/// through. Returns null on failure.
std::unique_ptr<Server> start_server(const ServeSpec& spec, const std::string& dir,
                                     std::string* error) {
  auto s = std::make_unique<Server>();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!make_assets(spec, dir + "/store", s->assets, error)) return nullptr;
  s->pool.emplace(s->assets.model.serve_model(), s->assets.config);
  zs::FrontendConfig fc;
  s->socket = dir + "/s.sock";
  fc.unix_path = s->socket;
  zs::LiveConfig live;
  live.record = true;  // the replay oracle needs the stamped trace
  s->frontend.emplace(*s->pool, fc, live);
  if (!s->frontend->start(error)) return nullptr;
  zs::ClientConn cc;
  std::string line;
  if (!cc.connect_unix(s->socket, error) || !cc.read_line(&line, 5000) ||
      !cc.send_line("step " + std::to_string(kProbeSession) + " 0") ||
      !cc.read_line(&line, 5000) || line.rfind("ok ", 0) != 0) {
    if (error && error->empty()) *error = "first request not answered: " + line;
    return nullptr;
  }
  return s;
}

void stop_server(Server& s) {
  s.frontend->stop();
  s.frontend->join();
}

/// Replays the server's recorded trace through a fresh RAM-only pool
/// (the virtual-clock path, untimed) and compares digest tables.
bool replay_matches(const Assets& assets, const std::vector<zs::TraceEvent>& trace,
                    const zs::DigestTable& live) {
  zs::PoolConfig cfg;
  cfg.shards = kShards;
  zs::EnginePool pool(assets.model.serve_model(), cfg);
  zs::replay(pool, trace, [](const zs::Response&) {});
  return pool.merged_digests() == live;
}

std::string rung_note(const PhaseResult& r, bool pass) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "rung rate=%.0f sent=%llu ok=%llu err=%llu p50_us=%.1f p99_us=%.1f "
                "samples=%zu goodput_rps=%.1f offered_rps=%.1f gen_lateness_p99_us=%.1f max_us=%.1f "
                "aborted=%d pass=%d",
                r.rate, static_cast<unsigned long long>(r.sent),
                static_cast<unsigned long long>(r.ok), static_cast<unsigned long long>(r.errors),
                r.p50(), r.p99(), r.latency_us.size(), r.goodput_rps, r.offered_rps,
                quantile(r.lateness_us, 0.99),
                r.lateness_us.empty() ? 0.0 : *std::max_element(r.lateness_us.begin(), r.lateness_us.end()),
                r.aborted ? 1 : 0, pass ? 1 : 0);
  return buf;
}

/// A rung passes when its p99 stays within the limit, the median of its
/// last tenth does too (no growing backlog), and every request it sent
/// was answered without an error.
bool rung_passes(const PhaseResult& r, const ServeSpec& spec) {
  const auto tenth = static_cast<std::ptrdiff_t>(r.latency_us.size() / 10);
  const double tail = quantile(std::vector<double>(r.latency_us.end() - tenth, r.latency_us.end()), 0.5);
  return !r.aborted && r.errors == 0 && r.ok == r.sent && r.p99() <= spec.limit_us &&
         tail <= spec.limit_us;
}

/// The generator held its schedule when its p99 lateness stays under a
/// quarter of the latency limit.
double generator_bound_us(const ServeSpec& spec) { return spec.limit_us / 4; }

/// Common tail of every serving run: stop, drain, and the oracles —
/// client-observed digests == server table, replay of the recorded
/// trace == server table, and the request ledger.
zs::DigestTable stop_and_check(Server& srv, SocketClient& client, Report& rep) {
  srv.frontend->stop();
  client.finish(30'000'000'000LL);
  srv.frontend->join();
  const zs::LiveServer& ls = srv.frontend->server();
  const zs::DigestTable live = srv.frontend->digests();
  rep.check(ls.submitted() == ls.responded() + ls.abandoned(),
            "ledger submitted == responded + abandoned (" + std::to_string(ls.submitted()) + ")");
  rep.check(client.late_lines() == 0, "no response arrived after its phase drained");
  // The client saw every response except the set-up probe's.
  zs::DigestTable seen = client.digests();
  const auto probe = live.find(kProbeSession);
  if (probe != live.end()) seen[kProbeSession] = probe->second;
  rep.check(seen == live, "client-observed digests == server digest table");
  rep.check(replay_matches(srv.assets, ls.recorded_trace(), live),
            "replay of the recorded trace == live digest table");
  return live;
}

/// One cold start timed twice: up to the first accepted request
/// (`setup_s`), and up to every session answered again from zero state
/// over one pipelined connection (`recovery_s`; serve_chat keeps no
/// durable state, so a restart is a cold start). False on failure.
bool timed_restart(const ServeSpec& spec, const std::string& dir, std::vector<double>& setup,
                   std::vector<double>& recovery, Report& rep) {
  std::string error;
  const std::int64_t t0 = now_ns();
  auto srv = start_server(spec, dir, &error);
  if (!srv) {
    rep.check(false, "server start: " + error);
    return false;
  }
  const std::int64_t t1 = now_ns();
  zs::ClientConn cc;
  std::string line;
  bool ok = cc.connect_unix(srv->socket, &error) && cc.read_line(&line, 5000);
  for (zn::Index s = 0; ok && s < spec.sessions; ++s) {
    ok = cc.send_line("step " + std::to_string(s) + " 0");
  }
  for (zn::Index s = 0; ok && s < spec.sessions; ++s) {
    ok = cc.read_line(&line, 5000) && line.rfind("ok ", 0) == 0;
  }
  const std::int64_t t2 = now_ns();
  stop_server(*srv);
  if (!ok) {
    rep.check(false, "cold restart answered every session again " + error);
    return false;
  }
  setup.push_back(static_cast<double>(t1 - t0) / 1e9);
  recovery.push_back(static_cast<double>(t2 - t0) / 1e9);
  return true;
}

void untraced(const Options& opt, const ServeSpec& spec, Report& rep) {
  std::string error;
  auto srv = start_server(spec, opt.work_dir + "/live", &error);
  SocketClient client;
  if (!srv || !client.connect(srv->socket, &error)) {
    rep.check(false, "server start: " + error);
    return;
  }
  Traffic traffic(spec, opt.seed, srv->assets.model.vocab);
  const double budget_s = opt.seconds;
  const double abort_us = std::max(10 * spec.limit_us, 50'000.0);
  const auto account = [&rep](const PhaseResult& r) {
    rep.attempted += r.sent;
    rep.failed += r.errors + (r.sent - std::min(r.sent, r.ok + r.errors));
  };
  // Warm-up at the nominal rate (threads, caches, session creation).
  account(client.run(traffic.make(100, spec.nominal_rps, budget_s * 0.05), spec.nominal_rps,
                     abort_us));

  // The run is kRounds rounds, so that every rung is sampled at many
  // moments: host noise on a shared virtual machine comes in stalls of
  // a few ms, often several a second, and in episodes of 10-20 s. A
  // round runs a segment of the nominal rate, then on even rounds a
  // segment of the overload rung (capacity) and on odd rounds one of the
  // other rungs (in turn), then kRestarts timed cold starts of a second
  // server while the served one idles. A rung's latency figures are those
  // of its quietest segment (lowest p99), so a tail regression recurring
  // less often than once per segment can hide in them.
  constexpr int kRounds = 20;
  constexpr int kRestarts = 6;
  const double overload = spec.ladder.back();
  std::vector<double> others;  // rungs other than the nominal and overload ones
  for (const double rate : spec.ladder) {
    if (rate != spec.nominal_rps && rate != overload) others.push_back(rate);
  }
  std::map<double, std::vector<PhaseResult>> segments;  // by rung, generator held
  std::map<double, int> run_segments;                   // by rung, all
  std::vector<double> setup, recovery, capacity;
  bool overload_passed = true;
  std::uint64_t phase = 0;
  for (int round = 0; round < kRounds; ++round) {
    const double second = round % 2 == 0 || others.empty()
                              ? overload
                              : others[static_cast<std::size_t>(round / 2) % others.size()];
    for (const double rate : {spec.nominal_rps, second}) {
      // The overload rung is cut short once its backlog grows past
      // abort_us; its schedule only has to outlast that.
      const double secs = rate == spec.nominal_rps ? budget_s * 0.5 / kRounds
                          : rate == overload       ? 1.0
                                                   : budget_s * 0.2 / kRounds;
      const Schedule sched = traffic.make(phase++, rate, secs);
      const PhaseResult r = client.run(sched, rate, abort_us);
      account(r);
      // A segment the generator could not hold says nothing about the
      // server: it is left out of the figures (an overload segment cut
      // short needs no schedule held).
      const bool gen_ok =
          quantile(r.lateness_us, 0.99) <= generator_bound_us(spec) || r.aborted;
      rep.note(rung_note(r, gen_ok && rung_passes(r, spec)) +
               (gen_ok ? "" : " (generator lagged; left out)"));
      ++run_segments[rate];
      if (!gen_ok) continue;
      if (rate == overload) {
        capacity.push_back(r.goodput_rps);
        overload_passed = overload_passed && rung_passes(r, spec);
      } else {
        segments[rate].push_back(r);
      }
    }
    for (int i = 0; i < kRestarts; ++i) {
      const std::string dir =
          opt.work_dir + "/restart" + std::to_string(round) + "-" + std::to_string(i);
      if (!timed_restart(spec, dir, setup, recovery, rep)) return;
    }
  }
  // Every rung needs a segment whose schedule the generator held. A
  // rung passes when its quietest such segment passes and none of them
  // lost or failed a request.
  for (const double rate : spec.ladder) {
    const std::size_t held = rate == overload ? capacity.size() : segments[rate].size();
    rep.check(held > 0, "generator held the schedule of " + std::to_string(held) + " of " +
                            std::to_string(run_segments[rate]) + " segments of rung " +
                            std::to_string(static_cast<long>(rate)));
  }
  double max_rate = overload_passed && !capacity.empty() ? overload : 0;
  for (const auto& [rate, segs] : segments) {
    if (segs.empty()) continue;
    const auto best = std::min_element(
        segs.begin(), segs.end(),
        [](const PhaseResult& x, const PhaseResult& y) { return x.p99() < y.p99(); });
    bool clean = true;
    for (const PhaseResult& seg : segs) {
      clean = clean && !seg.aborted && seg.errors == 0 && seg.ok == seg.sent;
    }
    if (clean && rung_passes(*best, spec)) max_rate = std::max(max_rate, rate);
    if (rate == spec.nominal_rps) {
      rep.set("latency_p50_us", best->p50());
      rep.set("latency_p99_us", best->p99());
    }
  }
  rep.set("max_rate_rps", max_rate);
  // Throughput is the server's capacity: the goodput of the overload
  // rung, whose backlog keeps the server saturated until it drains.
  rep.set("tokens_per_s", median(capacity));
  rep.set("setup_s", median(setup));
  // The restart of a quiet host: restarts are a few ms of thread
  // hand-offs, which a host stall doubles.
  rep.set("recovery_s", quantile(recovery, 0.1));
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "restarts=%zu setup_ms p10/p50/p90=%.3f/%.3f/%.3f recovery_ms=%.3f/%.3f/%.3f",
                setup.size(), quantile(setup, 0.1) * 1e3, quantile(setup, 0.5) * 1e3,
                quantile(setup, 0.9) * 1e3, quantile(recovery, 0.1) * 1e3,
                quantile(recovery, 0.5) * 1e3, quantile(recovery, 0.9) * 1e3);
  rep.note(buf);
  std::string caps = "capacity samples (req/s):";
  for (const double c : capacity) {
    std::snprintf(buf, sizeof buf, " %.0f", c);
    caps += buf;
  }
  rep.note(caps);

  stop_and_check(*srv, client, rep);
}

/// Median µs per call of fn() over chunks of `chunk` calls, for
/// `budget_ns`.
template <typename F>
double per_call_ns(std::int64_t budget_ns, int chunk, F&& fn) {
  std::vector<double> per;
  const std::int64_t end = now_ns() + budget_ns;
  while (per.size() < 5 || now_ns() < end) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < chunk; ++i) fn(i);
    per.push_back(static_cast<double>(now_ns() - t0) / chunk);
  }
  return median(per);
}

/// Journal and segment-store probes on a scratch directory with the
/// workload's record width: append/commit at the measured records per
/// commit, spill (which syncs every record) and restore.
void probe_store(const std::string& dir, const zn::Matrix& h, const zn::Matrix& c,
                 double records_per_commit, std::int64_t budget_ns, Tracer& tracer,
                 Report& rep) {
  zss::store::PosixEnv env;
  const zn::Index width = h.cols();
  std::vector<double> append, commit, spill, restore;
  {
    zss::store::JournalConfig jc;
    jc.path = dir + "/probe.jnl";
    jc.sync = zss::store::JournalSync::kNone;
    jc.checkpoint_bytes = std::uint64_t{1} << 62;  // the probe never checkpoints
    zss::store::Journal jn(env, jc, width);
    const int per_commit = std::max(1, static_cast<int>(std::lround(records_per_commit)));
    const std::int64_t end = now_ns() + budget_ns / 2;
    for (std::uint64_t id = 1; append.size() < 16 || now_ns() < end; ++id) {
      for (int k = 0; k < per_commit; ++k) {
        const std::int64_t t0 = now_ns();
        jn.append(zss::store::JournalRecordKind::kUpdate, id, 0, id, 0, id, id, h.data(), c.data());
        const std::int64_t t1 = now_ns();
        tracer.add("store.journal.append", "store", -1, t0, t1);
        append.push_back(ns_to_us(t1 - t0));
      }
      const std::int64_t t0 = now_ns();
      jn.commit();
      const std::int64_t t1 = now_ns();
      tracer.add("store.journal.commit", "store", -1, t0, t1);
      commit.push_back(ns_to_us(t1 - t0));
    }
  }
  {
    zss::store::StoreConfig sc;
    sc.path = dir + "/probe.seg";
    zss::store::SegmentStore st(env, sc, width);
    zn::Matrix h2, c2;
    bool exact = true;
    const std::int64_t end = now_ns() + budget_ns / 2;
    for (std::uint64_t id = 1; spill.size() < 16 || now_ns() < end; ++id) {
      std::int64_t t0 = now_ns();
      st.spill(id, zss::store::RecordMeta{0, id, 0}, h, c);
      std::int64_t t1 = now_ns();
      tracer.add("store.spill", "store", -1, t0, t1);
      spill.push_back(ns_to_us(t1 - t0));
      zss::store::RecordMeta meta;
      t0 = now_ns();
      const auto res = st.restore_into(id, &meta, h2, c2);
      t1 = now_ns();
      tracer.add("store.restore", "store", -1, t0, t1);
      restore.push_back(ns_to_us(t1 - t0));
      exact = exact && res == zss::store::RestoreResult::kOk && h2 == h && c2 == c;
    }
    rep.check(exact, "segment store probe restores spilled state exactly");
  }
  rep.set("store.journal.append_us", median(append));
  rep.set("store.journal.commit_us", median(commit));
  rep.set("store.spill_us", median(spill));
  rep.set("store.restore_us", median(restore));
}

/// Per-request records of the in-process replay, indexed by seq.
struct InprocLog {
  explicit InprocLog(std::size_t n)
      : due(n), call(n), ret(n), sink(n), arrival_us(n), done_us(n), service_us(n), traced(n) {}
  std::vector<std::int64_t> due, call, ret, sink;  // benchmark clock, ns
  std::vector<std::int64_t> arrival_us, done_us;   // server clock, µs
  std::vector<double> service_us;
  std::vector<char> traced;
};

/// A finished in-process replay: the pool it ran on (kept for its
/// counters and journal) and the per-request log.
struct Inproc {
  Assets assets;
  std::optional<zs::EnginePool> pool;
  Schedule sched;
  std::optional<InprocLog> log;
  std::int64_t offset_ns = 0;  // benchmark clock minus server clock
  std::uint64_t shed = 0;
};

/// Submits `spec`'s nominal schedule in process through
/// LiveServer::submit with the benchmark's own sink. Odd requests are
/// traced, even ones only timed, so both halves see the same moments of
/// the run; the sink stamps each response by seq.
std::unique_ptr<Inproc> run_inproc(const ServeSpec& spec, std::uint64_t seed,
                                   const std::string& dir, double secs, Report& rep) {
  auto in = std::make_unique<Inproc>();
  std::string error;
  if (!make_assets(spec, dir, in->assets, &error)) {
    rep.check(false, "in-process assets: " + error);
    return nullptr;
  }
  in->pool.emplace(in->assets.model.serve_model(), in->assets.config);
  Traffic traffic(spec, seed, in->assets.model.vocab);
  in->sched = traffic.make(1, spec.nominal_rps, secs);
  const std::size_t n = in->sched.size();
  in->log.emplace(n);
  InprocLog& log = *in->log;
  const zs::ResponseSink sink = [&log, n](const zs::Response& r) {
    if (r.seq >= n) return;
    log.sink[r.seq] = now_ns();
    if (log.traced[r.seq] != 0) {
      log.arrival_us[r.seq] = r.arrival_us;
      log.done_us[r.seq] = r.done_us;
      log.service_us[r.seq] = r.service_us;
    }
  };
  std::uint64_t rejected = 0;
  zs::LiveServer server(*in->pool, sink);
  in->offset_ns = now_ns() - server.now_us() * 1000;
  const std::int64_t t0 = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    const bool traced = i % 2 == 1;
    log.traced[i] = traced ? 1 : 0;
    log.due[i] = t0 + in->sched.due_ns[i];
    while (now_ns() < log.due[i]) {
    }
    if (traced) log.call[i] = now_ns();
    const auto seq = server.submit(in->sched.session[i], in->sched.token[i]);
    if (traced) log.ret[i] = now_ns();
    if (!seq || *seq != i) ++rejected;
  }
  server.shutdown();
  rep.check(server.submitted() == server.responded() + server.abandoned(),
            "in-process ledger submitted == responded + abandoned");
  in->shed = server.shed();
  rep.attempted += n;
  rep.failed += rejected;
  return in;
}

/// serve.*, frontend.* and trace.* metrics from an in-process replay;
/// one span tree per traced request.
void report_serve(const Inproc& in, double socket_p50, Tracer& run, Report& rep) {
  const InprocLog& log = *in.log;
  const std::size_t n = log.due.size();
  std::vector<double> lat_traced, lat_plain, queue, service, commit, submit;
  for (std::size_t i = 0; i < n; ++i) {
    if (log.sink[i] == 0) continue;
    const double lat = ns_to_us(log.sink[i] - log.due[i]);
    if (log.traced[i] == 0) {
      lat_plain.push_back(lat);
      continue;
    }
    lat_traced.push_back(lat);
    const std::int64_t arrival = log.arrival_us[i] * 1000 + in.offset_ns;
    const std::int64_t done = log.done_us[i] * 1000 + in.offset_ns;
    const auto served = done + static_cast<std::int64_t>(log.service_us[i] * 1000);
    queue.push_back(static_cast<double>(log.done_us[i] - log.arrival_us[i]));
    service.push_back(log.service_us[i]);
    commit.push_back(ns_to_us(log.sink[i] - served));
    submit.push_back(ns_to_us(log.ret[i] - log.call[i]));
    const auto id = static_cast<std::int64_t>(i);
    const std::int32_t root = run.add("serve.request", "serve", -1, log.due[i], log.sink[i], id);
    if (root < 0) continue;  // tracer full: metrics still use every request
    run.add("serve.submit", "serve", root, log.call[i], log.ret[i], id);
    run.add("serve.queue_wait", "serve", root, std::max(arrival, log.ret[i]), done, id);
    run.add("serve.service", "core", root, done, served, id);
    run.add("serve.commit", "serve", root, served, log.sink[i], id);
  }
  const double inproc_p50 = quantile(lat_traced, 0.5);
  rep.set("serve.inproc_latency_p50_us", inproc_p50);
  rep.set("frontend.overhead_p50_us", socket_p50 - inproc_p50);
  rep.set("trace.overhead_frac", inproc_p50 / quantile(lat_plain, 0.5) - 1.0);
  rep.set("serve.queue_wait_p50_us", quantile(queue, 0.5));
  rep.set("serve.queue_wait_p99_us", quantile(queue, 0.99));
  rep.set("serve.service_p50_us", quantile(service, 0.5));
  rep.set("serve.service_p99_us", quantile(service, 0.99));
  rep.set("serve.commit_p50_us", quantile(commit, 0.5));
  rep.set("serve.submit_us", quantile(submit, 0.5));
  rep.note("in-process requests=" + std::to_string(n) + " traced=" +
           std::to_string(lat_traced.size()));

  double busy = 0, cpu = 0, requests = 0, batches = 0, timeouts = 0;
  for (zn::Index i = 0; i < in.pool->num_shards(); ++i) {
    const zs::ShardStats& st = in.pool->shard(i).stats();
    busy += st.busy_us;
    cpu += st.cpu_us;
    requests += static_cast<double>(st.requests);
    batches += static_cast<double>(st.batches);
    timeouts += static_cast<double>(in.pool->shard(i).timeouts());
  }
  const double wall_us =
      ns_to_us(*std::max_element(log.sink.begin(), log.sink.end()) - log.due[0]);
  rep.set("serve.shard.busy_frac",
          busy / (static_cast<double>(in.pool->num_shards()) * wall_us));
  rep.set("serve.shard.cpu_us_per_req", cpu / requests);
  rep.set("serve.mean_batch", requests / batches);
  rep.set("serve.timeouts", timeouts);
  rep.set("serve.shed", static_cast<double>(in.shed));
}

/// store.* metrics from a journaled in-process replay: tier rates and
/// journal counters, the journal and segment-store probes, and the time
/// to reopen the pool over its journal (checked against the live table).
void report_store(Inproc& in, const std::string& probe_dir, std::int64_t budget_ns,
                  Tracer& probes, Report& rep) {
  double requests = 0, created = 0, restored = 0, appended = 0, commits = 0;
  for (zn::Index i = 0; i < in.pool->num_shards(); ++i) {
    requests += static_cast<double>(in.pool->shard(i).stats().requests);
    created += static_cast<double>(in.pool->shard(i).sessions().created());
    restored += static_cast<double>(in.pool->shard(i).sessions().restored());
    if (const auto* j = in.pool->journal(i)) {
      appended += static_cast<double>(j->appended());
      commits += static_cast<double>(j->commits());
    }
  }
  rep.set("store.hot_rate", 1.0 - (created + restored) / requests);
  rep.set("store.warm_rate", restored / requests);
  rep.set("store.cold_rate", created / requests);
  const StackModel& model = in.assets.model;
  const zn::Index width = model.hidden() * model.layers();
  rep.set("store.journal.bytes_per_step",
          (appended * 72.0 + requests * 2.0 * static_cast<double>(width) * 4.0) / requests);
  rep.set("store.journal.records_per_commit", appended / commits);

  // Probe records carry a pruned state of the served model.
  zc::StackedEngine engine(model.cells, model.pruner_ptrs);
  const auto samples = capture_samples(engine, model, 7, 1, 32, 1);
  zn::Matrix h(1, width), c(1, width);
  std::copy(samples[0][0].h.row(0).begin(), samples[0][0].h.row(0).end(), h.row(0).begin());
  std::copy(samples[0][0].c.row(0).begin(), samples[0][0].c.row(0).end(), c.row(0).begin());
  probe_store(probe_dir, h, c, appended / commits, budget_ns, probes, rep);

  const zs::DigestTable live = in.pool->merged_digests();
  in.pool.reset();
  const std::int64_t t0 = now_ns();
  zs::EnginePool again(model.serve_model(), in.assets.config);
  const double reopen_s = static_cast<double>(now_ns() - t0) / 1e9;
  double records = 0;
  for (zn::Index i = 0; i < again.num_shards(); ++i) {
    if (const auto* j = again.journal(i)) records += static_cast<double>(j->recovered_records());
  }
  rep.set("store.recovered_records_per_s", records / reopen_s);
  rep.check(again.merged_digests() == live, "in-process recovery == live digest table");
}

void traced(const Options& opt, const ServeSpec& spec, Report& rep) {
  std::string error;
  const double secs = opt.seconds;
  const auto budget = static_cast<std::int64_t>(secs * 1e9);
  const double abort_us = std::max(10 * spec.limit_us, 50'000.0);

  // 1. The socket path at the nominal rate (untraced client).
  double socket_p50 = 0;
  {
    auto srv = start_server(spec, opt.work_dir + "/live", &error);
    SocketClient client;
    if (!srv || !client.connect(srv->socket, &error)) {
      rep.check(false, "server start: " + error);
      return;
    }
    Traffic traffic(spec, opt.seed, srv->assets.model.vocab);
    // Warm-up, then the measured phase. A phase the generator could not
    // hold says nothing about the server: it is run again, up to
    // kAttempts times, and only a lag in every attempt fails the run.
    constexpr int kAttempts = 3;
    bool gen_ok = false;
    for (int attempt = 0; attempt <= kAttempts && !gen_ok; ++attempt) {
      const bool measured = attempt > 0;
      const PhaseResult r = client.run(
          traffic.make(measured ? attempt : 100, spec.nominal_rps, secs * (measured ? 0.25 : 0.05)),
          spec.nominal_rps, abort_us);
      rep.attempted += r.sent;
      rep.failed += r.errors + (r.sent - std::min(r.sent, r.ok + r.errors));
      if (!measured) continue;
      const double late99 = quantile(r.lateness_us, 0.99);
      gen_ok = late99 <= generator_bound_us(spec);
      rep.note(rung_note(r, gen_ok) + (gen_ok ? "" : " (generator lagged)"));
      socket_p50 = r.p50();
      rep.set("gen.offered_rps", r.offered_rps);
      rep.set("gen.lateness_p99_us", late99);
      rep.set("gen.lateness_max_us",
              *std::max_element(r.lateness_us.begin(), r.lateness_us.end()));
    }
    rep.check(gen_ok, "generator held the nominal schedule in one of " +
                          std::to_string(kAttempts) + " attempts");
    stop_and_check(*srv, client, rep);
  }

  // 2. The same schedule in process, traced.
  Tracer run(static_cast<std::size_t>(spec.nominal_rps * secs * 0.2 / 2 * 5) + 16);
  Tracer probes(1 << 18);
  auto in = run_inproc(spec, opt.seed, opt.work_dir + "/inproc", secs * 0.2, rep);
  if (!in) return;
  report_serve(*in, socket_p50, run, rep);

  // 3. Kernel probes at the served model's shapes (batch 8), protocol
  //    probes on the schedule's own lines.
  {
    const StackModel& model = in->assets.model;
    zc::StackedEngine engine(model.cells, model.pruner_ptrs);
    const auto samples = capture_samples(engine, model, opt.seed, 8, 32, 16);
    report_probes(engine, samples, budget / 10, &probes, rep);
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < 1024; ++i) {
      lines.push_back("step " + std::to_string(in->sched.session[i % in->sched.size()]) + " " +
                      std::to_string(in->sched.token[i % in->sched.size()]));
    }
    zs::CommandLine cmd;
    std::string perr;
    rep.set("serve.protocol.parse_ns", per_call_ns(budget / 100, 1024, [&](int i) {
              zs::parse_command(lines[static_cast<std::size_t>(i)], cmd, &perr);
            }));
    zs::Response resp;
    resp.session = 12345;
    resp.seq = 678901;
    resp.batch = 3;
    std::size_t bytes = 0;
    rep.set("serve.protocol.format_ns", per_call_ns(budget / 100, 1024, [&](int i) {
              bytes += zs::format_response(resp, static_cast<std::uint64_t>(i)).size();
            }));
    rep.check(bytes > 0, "protocol probe formatted responses");
  }

  // 4. The store: an in-process replay of the durable traffic.
  in.reset();
  in = run_inproc(durable_spec(), opt.seed, opt.work_dir + "/durable", secs * 0.2, rep);
  if (!in) return;
  report_store(*in, opt.work_dir, budget / 10, probes, rep);

  set_self_fractions(run, rep);
  write_traces(opt, {&run, &probes}, rep);
}

}  // namespace

void run_serving(const Options& opt, Report& rep) {
  const ServeSpec spec = chat_spec();
  if (opt.trace) {
    traced(opt, spec, rep);
  } else {
    untraced(opt, spec, rep);
  }
}

}  // namespace perfbench
