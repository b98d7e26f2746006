// pgbench — the benchmark's input generator, exact oracle and load client.
//
//   pgbench gen   --workload W --seed S --out DIR
//       writes DIR/edges.el (the only file the program sees), DIR/truth.txt
//       (exact mining values) and DIR/pairs.txt (the pair pool with exact
//       intersections).
//   pgbench drive --workload W --phase P --dir DIR --port PORT --seed S
//                 [--seconds T]
//       drives one phase against a running `pgtool serve --listen` over
//       loopback TCP, checks every reply, and prints one JSON object.
//       Phases: window (the workload's timed traffic), scan (a fixed scan
//       probe), seal (insert+seal cycles on a --live server).
//   pgbench calib
//       effective parallelism: one fixed CPU-bound loop on 1 thread, then on
//       nproc threads at once.
//
// Every connection is closed loop: it waits for its replies. A reply that is
// an err line, fails a check, misses its timeout, or is lost with its
// connection counts as a failed operation.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "common.hpp"

namespace pb {
namespace {

constexpr double kPairTimeoutS = 10.0;
constexpr double kScanTimeoutS = 60.0;
constexpr std::size_t kPoolSize = 1u << 18;
constexpr std::size_t kBulkDepth = 32;
constexpr std::size_t kMinePairsPerPass = 12000;  // per interactive connection
constexpr std::size_t kChurnBatch = 256;
constexpr std::size_t kSealProbeBatch = 1000;
constexpr int kSealProbeCycles = 5;
constexpr int kProbeLightReps = 5;
constexpr double kProbeHeavyBudgetS = 2.0;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "pgbench: %s\n", msg.c_str());
  std::exit(2);
}

std::string fmt12(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t p = s.find(sep, start);
    out.push_back(s.substr(start, p - start));
    if (p == std::string::npos) break;
    start = p + 1;
  }
  return out;
}

bool parse_double(const std::string& s, double& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size() && std::isfinite(out);
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

/// Value of `key=` among tab-separated reply fields.
std::optional<std::string> field(const std::vector<std::string>& f, const std::string& key) {
  for (const auto& x : f) {
    if (x.size() > key.size() && x.compare(0, key.size(), key) == 0 && x[key.size()] == '=') {
      return x.substr(key.size() + 1);
    }
  }
  return std::nullopt;
}

// --- Workload inputs. ---

struct Spec {
  enum class Kind { kRmat, kWs } kind;
  unsigned scale = 0, edge_factor = 0;
  std::uint32_t n = 0, k = 0;
  double beta = 0;
};

Spec spec_for(const std::string& workload) {
  if (workload == "mine") return {Spec::Kind::kRmat, 16, 16, 0, 0, 0};
  if (workload == "point") return {Spec::Kind::kRmat, 18, 16, 0, 0, 0};
  if (workload == "churn") return {Spec::Kind::kWs, 0, 0, 1u << 16, 12, 0.1};
  die("unknown workload '" + workload + "'");
}

/// Link candidates (v a random 2-hop neighbour of u) with one pair in five
/// uniform, so both hubs and leaves appear.
std::vector<PairRow> make_pairs(const Graph& g, std::uint64_t seed, bool avoid_w) {
  Rng rng(seed ^ 0x70a1e5ULL);
  std::vector<PairRow> pool;
  pool.reserve(kPoolSize);
  const auto ok = [&](std::uint32_t x) { return !avoid_w || !in_w(x); };
  while (pool.size() < kPoolSize) {
    const auto u = static_cast<std::uint32_t>(rng.below(g.n));
    if (!ok(u)) continue;
    std::uint32_t v = 0;
    if (rng.below(5) == 0) {
      v = static_cast<std::uint32_t>(rng.below(g.n));
    } else {
      if (g.deg(u) == 0) continue;
      const std::uint32_t w = g.nbrs(u)[rng.below(g.deg(u))];
      v = g.nbrs(w)[rng.below(g.deg(w))];
    }
    if (v == u || !ok(v)) continue;
    pool.push_back({u, v, intersect(g.nbrs(u), g.nbrs(v))});
  }
  return pool;
}

int cmd_gen(const std::string& workload, std::uint64_t seed, const std::string& dir) {
  const Spec s = spec_for(workload);
  std::uint32_t n = 0;
  std::vector<Edge> edges;
  if (s.kind == Spec::Kind::kRmat) {
    n = 1u << s.scale;
    edges = rmat(s.scale, s.edge_factor, seed);
  } else {
    n = s.n;
    edges = watts_strogatz(s.n, s.k, s.beta, seed);
  }
  write_edge_list(dir + "/edges.el", n, edges);
  const Graph g = make_graph(n, edges);
  const MiningTruth t = mining_truth(g);
  {
    std::ofstream out(dir + "/truth.txt");
    out << "n=" << t.n << "\nm=" << t.m << "\ntc=" << t.tc << "\nwedges=" << t.wedges
        << "\nfour_cliques=" << t.four_cliques << "\njp_kept=" << t.jp.kept_edges
        << "\njp_clusters=" << t.jp.clusters << "\n";
  }
  {
    std::ofstream out(dir + "/pairs.txt");
    for (const PairRow& p : make_pairs(g, seed, workload == "churn")) {
      out << p.u << ' ' << p.v << ' ' << p.exact << '\n';
    }
  }
  return 0;
}

// --- Blocking loopback connection with per-request deadlines. ---

class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }

  bool send(const std::string& data) {
    std::size_t off = 0;
    while (fd_ >= 0 && off < data.size()) {
      const ssize_t w = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) {
        drop();
        return false;
      }
      off += static_cast<std::size_t>(w);
    }
    return fd_ >= 0;
  }

  /// One reply line (without the newline); false on timeout or a closed
  /// connection, after which the connection is dropped.
  bool read_line(std::string& line, double deadline) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', scan_);
      if (nl != std::string::npos) {
        line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        scan_ = 0;
        return true;
      }
      scan_ = buf_.size();
      if (fd_ < 0) return false;
      const double left = deadline - now_s();
      if (left <= 0) {
        drop();
        return false;
      }
      pollfd p{fd_, POLLIN, 0};
      const int r = ::poll(&p, 1, static_cast<int>(std::ceil(left * 1e3)));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) continue;  // re-checks the deadline
      char tmp[65536];
      const ssize_t got = ::recv(fd_, tmp, sizeof tmp, 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        drop();
        return false;
      }
      buf_.append(tmp, static_cast<std::size_t>(got));
    }
  }

 private:
  void drop() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int fd_ = -1;
  std::string buf_;
  std::size_t scan_ = 0;
};

// --- Result tally of one phase. ---

struct Dev {
  double sum = 0;   // Σ |est - exact| / exact, or Σ |est - exact| for pairs
  double base = 0;  // number of terms, or Σ exact for pairs
};

struct Tally {
  std::uint64_t attempted = 0, failed = 0, answered = 0;
  std::vector<std::pair<double, double>> interactive;  // (completion time, round trip us)
  std::map<std::string, std::vector<double>> samples_ms;  // tc_ms, cc_ms, ...
  std::map<std::string, std::map<std::string, Dev>> dev;  // kind -> group -> dev
  std::vector<std::string> errors;
  std::string kernel_level;
  double elapsed_s = 0;
  double qps = 0;  // answered per second of the phase's timed traffic
  std::uint64_t patched = 0, rebuilt = 0;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  void term(const std::string& kind, const std::string& group, double est, double exact) {
    if (exact <= 0) return;
    Dev& d = dev[kind][group];
    d.sum += std::fabs(est - exact) / exact;
    d.base += 1;
  }
  void merge(const Tally& o, bool with_dev = true) {
    attempted += o.attempted;
    failed += o.failed;
    answered += o.answered;
    interactive.insert(interactive.end(), o.interactive.begin(), o.interactive.end());
    for (const auto& [k, v] : o.samples_ms) {
      samples_ms[k].insert(samples_ms[k].end(), v.begin(), v.end());
    }
    for (const auto& [kind, groups] : with_dev ? o.dev : decltype(o.dev){}) {
      for (const auto& [g, d] : groups) {
        dev[kind][g].sum += d.sum;
        dev[kind][g].base += d.base;
      }
    }
    for (const auto& e : o.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
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
  return out + "\"";
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_tally(const Tally& t) {
  std::ostringstream o;
  o << "{\"attempted\":" << t.attempted << ",\"failed\":" << t.failed
    << ",\"answered\":" << t.answered << ",\"elapsed_s\":" << json_num(t.elapsed_s)
    << ",\"qps\":" << json_num(t.qps);
  o << ",\"interactive\":{\"count\":" << t.interactive.size();
  if (!t.interactive.empty()) {
    // p99 per tenth of the samples in completion order, then the median of
    // those ten: a stall of a second or two on a shared host moves one or
    // two tenths, not the reported tail.
    auto by_time = t.interactive;
    std::sort(by_time.begin(), by_time.end());
    std::vector<double> all, tenth_p99;
    for (const auto& [at, us] : by_time) all.push_back(us);
    for (std::size_t k = 0; k < 10; ++k) {
      tenth_p99.push_back(quantile(std::vector<double>(all.begin() + static_cast<std::ptrdiff_t>(all.size() * k / 10),
                                                       all.begin() + static_cast<std::ptrdiff_t>(all.size() * (k + 1) / 10)),
                                   0.99));
    }
    o << ",\"p50_us\":" << json_num(quantile(all, 0.5))
      << ",\"p99_us\":" << json_num(quantile(tenth_p99, 0.5))
      << ",\"p99_all_us\":" << json_num(quantile(all, 0.99));
  }
  o << "},\"samples_ms\":{";
  bool first = true;
  for (const auto& [k, v] : t.samples_ms) {
    o << (first ? "" : ",") << json_str(k) << ":[";
    for (std::size_t i = 0; i < v.size(); ++i) o << (i ? "," : "") << json_num(v[i]);
    o << "]";
    first = false;
  }
  o << "},\"dev\":{";
  first = true;
  for (const auto& [kind, groups] : t.dev) {
    o << (first ? "" : ",") << json_str(kind) << ":{";
    bool g1 = true;
    for (const auto& [g, d] : groups) {
      o << (g1 ? "" : ",") << json_str(g) << ":[" << json_num(d.sum) << "," << json_num(d.base)
        << "]";
      g1 = false;
    }
    o << "}";
    first = false;
  }
  o << "},\"kernel_level\":" << json_str(t.kernel_level) << ",\"patched\":" << t.patched
    << ",\"rebuilt\":" << t.rebuilt << ",\"errors\":[";
  for (std::size_t i = 0; i < t.errors.size(); ++i) {
    o << (i ? "," : "") << json_str(t.errors[i]);
  }
  o << "]}";
  std::printf("%s\n", o.str().c_str());
}

// --- One request/reply exchange. ---

/// Sends `req`, waits for its reply; returns the reply (empty on failure,
/// which is already counted) and its round trip in seconds.
std::optional<std::string> exchange(Conn& c, Tally& t, const std::string& req, double timeout,
                                    double* rtt_s) {
  ++t.attempted;
  const double t0 = now_s();
  std::string reply;
  if (!c.send(req + "\n") || !c.read_line(reply, t0 + timeout)) {
    t.fail("no reply to '" + req.substr(0, 60) + "'");
    return std::nullopt;
  }
  if (rtt_s != nullptr) *rtt_s = now_s() - t0;
  if (reply.rfind("ok\t", 0) != 0) {
    t.fail("'" + req.substr(0, 60) + "' -> " + reply.substr(0, 120));
    return std::nullopt;
  }
  ++t.answered;
  return reply;
}

// --- Mining pass: tc, cc, cluster per kind, 4cc (BF), the exact escapes. ---

const char* const kKinds[2] = {"bf", "kmv"};

/// Returns false when a check fails (already counted).
bool check_scalar(Tally& t, const std::string& reply, const char* name, double& value,
                  bool unit_interval) {
  const auto f = split(reply, '\t');
  if (f.size() != 3 || f[1] != name || !parse_double(f[2], value) || value < 0 ||
      (unit_interval && value > 1)) {
    t.fail(std::string("bad ") + name + " reply: " + reply.substr(0, 120));
    return false;
  }
  return true;
}

bool check_cluster(Tally& t, const std::string& reply, const Truth& truth, std::uint64_t& clusters,
                   std::uint64_t& kept) {
  const auto f = split(reply, '\t');
  const auto c = field(f, "clusters");
  const auto k = field(f, "kept_edges");
  if (f.size() != 4 || f[1] != "cluster" || !c || !k || !parse_u64(*c, clusters) ||
      !parse_u64(*k, kept) || clusters == 0 || clusters > truth.n || kept > truth.m) {
    t.fail("bad cluster reply: " + reply.substr(0, 120));
    return false;
  }
  return true;
}

/// tc and cc (when `tc_cc`) and cluster (when `cluster`), once per kind.
void light_scans(Conn& c, const Truth& truth, Tally& t, bool tc_cc, bool cluster) {
  double rtt = 0;
  const double cc_exact = clustering_coefficient(truth.tc, truth.wedges);
  if (tc_cc) {
    for (const char* q : {"tc", "cc"}) {
      double sum_ms = 0;
      bool ok = true;
      for (const char* kind : kKinds) {
        const auto r = exchange(c, t, std::string(q) + " kind=" + kind, kScanTimeoutS, &rtt);
        double v = 0;
        if (!r || !check_scalar(t, *r, q, v, q[0] == 'c')) {
          ok = false;
          continue;
        }
        sum_ms += rtt * 1e3;
        t.term(kind, q, v, q[0] == 't' ? static_cast<double>(truth.tc) : cc_exact);
      }
      if (ok) t.samples_ms[std::string(q) + "_ms"].push_back(sum_ms);
    }
  }
  if (cluster) {
    double sum_ms = 0;
    bool ok = true;
    for (const char* kind : kKinds) {
      const auto r = exchange(c, t, std::string("cluster jaccard 0.1 kind=") + kind,
                              kScanTimeoutS, &rtt);
      std::uint64_t clusters = 0, kept = 0;
      if (!r || !check_cluster(t, *r, truth, clusters, kept)) {
        ok = false;
        continue;
      }
      sum_ms += rtt * 1e3;
      t.term(kind, "clusters", static_cast<double>(clusters), static_cast<double>(truth.jp_clusters));
      t.term(kind, "kept_edges", static_cast<double>(kept), static_cast<double>(truth.jp_kept));
    }
    if (ok) t.samples_ms["cluster_ms"].push_back(sum_ms);
  }
}

/// 4cc (BF; KMV cannot answer it), then the exact escape of all four.
void heavy_scans(Conn& c, const Truth& truth, Tally& t) {
  double rtt = 0;
  const double cc_exact = clustering_coefficient(truth.tc, truth.wedges);
  {
    const auto r = exchange(c, t, "4cc kind=bf", kScanTimeoutS, &rtt);
    double v = 0;
    if (r && check_scalar(t, *r, "4cc", v, false)) {
      t.samples_ms["4cc_ms"].push_back(rtt * 1e3);
      t.term("bf", "4cc", v, static_cast<double>(truth.four_cliques));
    }
  }
  // The exact escapes must reproduce the oracle at the protocol's 12
  // significant digits.
  double exact_ms = 0;
  bool ok = true;
  const auto expect = [&](const std::string& req, const std::string& want) {
    const auto r = exchange(c, t, req, kScanTimeoutS, &rtt);
    if (!r) {
      ok = false;
      return;
    }
    exact_ms += rtt * 1e3;
    if (*r != want) {
      ok = false;
      t.fail("'" + req + "' -> " + r->substr(0, 120) + " (expected " + want + ")");
    }
  };
  expect("tc exact", "ok\ttc\t" + fmt12(static_cast<double>(truth.tc)));
  expect("cc exact", "ok\tcc\t" + fmt12(cc_exact));
  expect("cluster jaccard 0.1 exact", "ok\tcluster\tclusters=" + std::to_string(truth.jp_clusters) +
                                          "\tkept_edges=" + std::to_string(truth.jp_kept));
  expect("4cc exact", "ok\t4cc\t" + fmt12(static_cast<double>(truth.four_cliques)));
  if (ok) t.samples_ms["exact_ms"].push_back(exact_ms);
}

/// One mining pass: tc, cc and cluster per kind, 4cc, the exact escapes.
void scan_pass(Conn& c, const Truth& truth, Tally& t) {
  light_scans(c, truth, t, true, true);
  heavy_scans(c, truth, t);
}

/// The scan probe of workloads whose own traffic is not scans: the light
/// scans kProbeLightReps times, the heavy ones up to that many times within
/// kProbeHeavyBudgetS (at least once).
void scan_probe(Conn& c, const Truth& truth, Tally& t, bool tc_cc) {
  for (int i = 0; i < kProbeLightReps && c.ok(); ++i) light_scans(c, truth, t, tc_cc, true);
  const double t0 = now_s();
  for (int i = 0; i < kProbeLightReps && c.ok() && (i == 0 || now_s() - t0 < kProbeHeavyBudgetS);
       ++i) {
    heavy_scans(c, truth, t);
  }
}

// --- Pair traffic. ---

struct PairRequest {
  std::string line;
  std::vector<const PairRow*> rows;
  const char* kind = "bf";
};

PairRequest make_pair_request(const std::vector<PairRow>& pool, Rng& rng, std::uint64_t serial) {
  PairRequest r;
  r.kind = kKinds[serial % 2];
  const std::size_t npairs = 1 + rng.below(8);
  r.line = "pair intersection";
  for (std::size_t i = 0; i < npairs; ++i) {
    const PairRow* p = &pool[rng.below(pool.size())];
    r.rows.push_back(p);
    r.line += ' ' + std::to_string(p->u) + ' ' + std::to_string(p->v);
  }
  r.line += std::string(" kind=") + r.kind;
  return r;
}

/// Replies must name the request's pairs in request order.
void check_pair_reply(Tally& t, const PairRequest& req, const std::string& reply) {
  const auto f = split(reply, '\t');
  if (f.size() != req.rows.size() + 2 || f[1] != "pair") {
    t.fail("bad pair reply: " + reply.substr(0, 120));
    return;
  }
  double abs_err = 0, exact = 0;
  for (std::size_t i = 0; i < req.rows.size(); ++i) {
    const PairRow& p = *req.rows[i];
    const std::string name = std::to_string(p.u) + ':' + std::to_string(p.v) + '=';
    double v = 0;
    if (f[i + 2].compare(0, name.size(), name) != 0 ||
        !parse_double(f[i + 2].substr(name.size()), v) || v < 0) {
      t.fail("pair reply out of order or malformed: " + reply.substr(0, 120));
      return;
    }
    abs_err += std::fabs(v - static_cast<double>(p.exact));
    exact += static_cast<double>(p.exact);
  }
  Dev& d = t.dev[req.kind]["pair"];
  d.sum += abs_err;
  d.base += exact;
}

/// One interactive connection: one request at a time, 1–8 pairs each,
/// kinds alternating; its stream continues across calls to run().
struct Interactive {
  Interactive(std::uint16_t port, std::uint64_t seed) : conn(port), rng(seed) {}

  /// Sends up to `count` requests, stopping at `deadline`.
  void run(const std::vector<PairRow>& pool, double deadline, std::size_t count, Tally& t) {
    if (!conn.ok()) {
      ++t.attempted;
      t.fail("interactive connection lost");
      return;
    }
    for (std::size_t i = 0; i < count && now_s() < deadline; ++i) {
      const PairRequest req = make_pair_request(pool, rng, serial++);
      double rtt = 0;
      const auto r = exchange(conn, t, req.line, kPairTimeoutS, &rtt);
      if (!r) {
        if (!conn.ok()) return;
        continue;
      }
      t.interactive.push_back({now_s(), rtt * 1e6});
      check_pair_reply(t, req, *r);
    }
  }

  Conn conn;
  Rng rng;
  std::uint64_t serial = 0;
};

/// Two interactive connections side by side for one stretch of traffic.
void run_interactive(std::vector<std::unique_ptr<Interactive>>& ics,
                     const std::vector<PairRow>& pool, double deadline, std::size_t count,
                     Tally& t) {
  std::vector<Tally> parts(ics.size());
  std::vector<std::thread> th;
  for (std::size_t i = 0; i < ics.size(); ++i) {
    th.emplace_back([&, i] { ics[i]->run(pool, deadline, count, parts[i]); });
  }
  for (auto& x : th) x.join();
  for (const Tally& p : parts) t.merge(p);
}

std::vector<std::unique_ptr<Interactive>> interactive_pair(std::uint16_t port, std::uint64_t seed) {
  std::vector<std::unique_ptr<Interactive>> ics;
  for (std::uint64_t i = 0; i < 2; ++i) ics.push_back(std::make_unique<Interactive>(port, seed * 131 + i));
  return ics;
}

/// One bulk connection: keeps kBulkDepth requests in flight until
/// `deadline` or `stop`, then drains; its stream continues across calls.
struct Bulk {
  Bulk(std::uint16_t port, std::uint64_t seed) : conn(port), rng(seed) {}

  void run(const std::vector<PairRow>& pool, double deadline, const std::atomic<bool>& stop,
           Tally& t) {
    std::deque<PairRequest> inflight;
    const auto send_one = [&] {
      PairRequest req = make_pair_request(pool, rng, serial++);
      ++t.attempted;
      if (!conn.send(req.line + "\n")) {
        t.fail("bulk connection lost");
        return false;
      }
      inflight.push_back(std::move(req));
      return true;
    };
    std::string reply;
    while (inflight.size() < kBulkDepth && send_one()) {
    }
    while (!inflight.empty()) {
      if (!conn.read_line(reply, now_s() + kPairTimeoutS)) {
        for (std::size_t i = 0; i < inflight.size(); ++i) t.fail("bulk connection lost");
        return;
      }
      const PairRequest req = std::move(inflight.front());
      inflight.pop_front();
      if (reply.rfind("ok\t", 0) != 0) {
        t.fail("'" + req.line.substr(0, 60) + "' -> " + reply.substr(0, 120));
      } else {
        ++t.answered;
        check_pair_reply(t, req, reply);
      }
      if (now_s() < deadline && !stop.load() && !send_one()) {
        for (std::size_t i = 0; i < inflight.size(); ++i) t.fail("bulk connection lost");
        return;
      }
    }
  }

  Conn conn;
  Rng rng;
  std::uint64_t serial = 0;
};

/// Interactive and bulk connections side by side until `deadline`, or until
/// each interactive connection has sent `count` requests.
void pair_mix(std::vector<std::unique_ptr<Interactive>>& ics, std::vector<std::unique_ptr<Bulk>>& bulk,
              const std::vector<PairRow>& pool, double deadline, std::size_t count, Tally& t) {
  std::atomic<bool> stop{false};
  std::vector<Tally> parts(bulk.size());
  std::vector<std::thread> th;
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    th.emplace_back([&, i] { bulk[i]->run(pool, deadline, stop, parts[i]); });
  }
  run_interactive(ics, pool, deadline, count, t);
  stop = true;
  for (auto& x : th) x.join();
  for (const Tally& p : parts) t.merge(p);
}

std::vector<std::unique_ptr<Bulk>> bulk_conns(std::uint16_t port, std::uint64_t seed, std::size_t n) {
  std::vector<std::unique_ptr<Bulk>> bulk;
  for (std::uint64_t i = 0; i < n; ++i) bulk.push_back(std::make_unique<Bulk>(port, seed * 137 + i));
  return bulk;
}

// --- Live updates. ---

/// Adjacency kept by the benchmark while the writer edits the graph, with
/// triangle and wedge counts updated per edge.
struct LiveGraph {
  std::vector<std::vector<std::uint32_t>> adj;
  std::uint64_t m = 0, tri = 0, wedges = 0;

  explicit LiveGraph(const Graph& g) : adj(g.n), m(g.m()), wedges(pb::wedges(g)) {
    for (std::uint32_t v = 0; v < g.n; ++v) adj[v].assign(g.nbrs(v).begin(), g.nbrs(v).end());
    tri = triangles(orient(g));
  }
  bool has(std::uint32_t u, std::uint32_t v) const {
    return std::binary_search(adj[u].begin(), adj[u].end(), v);
  }
  std::uint64_t common(std::uint32_t u, std::uint32_t v) const {
    return intersect(adj[u], adj[v]);
  }
  void insert(std::uint32_t u, std::uint32_t v) {
    tri += common(u, v);
    wedges += adj[u].size() + adj[v].size();
    adj[u].insert(std::lower_bound(adj[u].begin(), adj[u].end(), v), v);
    adj[v].insert(std::lower_bound(adj[v].begin(), adj[v].end(), u), u);
    ++m;
  }
  void erase(std::uint32_t u, std::uint32_t v) {
    adj[u].erase(std::lower_bound(adj[u].begin(), adj[u].end(), v));
    adj[v].erase(std::lower_bound(adj[v].begin(), adj[v].end(), u));
    tri -= common(u, v);
    wedges -= adj[u].size() + adj[v].size();
    --m;
  }
  Graph snapshot() const {
    std::vector<Edge> edges;
    edges.reserve(m);
    for (std::uint32_t u = 0; u < adj.size(); ++u) {
      for (const std::uint32_t v : adj[u]) {
        if (u < v) edges.emplace_back(u, v);
      }
    }
    return make_graph(static_cast<std::uint32_t>(adj.size()), edges);
  }
};

std::string edges_line(const char* op, const std::vector<Edge>& edges) {
  std::string line = std::string("update ") + op;
  for (const auto& [u, v] : edges) line += ' ' + std::to_string(u) + ' ' + std::to_string(v);
  return line;
}

/// Stages inserts (and deletes), seals, then checks epoch and stats against
/// the benchmark's own tally. Returns the seal round trip in ms, or a
/// negative value after a failure.
double seal_cycle(Conn& c, Tally& t, LiveGraph& lg, std::uint64_t& generation,
                  const std::vector<Edge>& ins, const std::vector<Edge>& del) {
  const auto staged = [&](const char* op, const std::vector<Edge>& e) {
    const auto r = exchange(c, t, edges_line(op, e), kPairTimeoutS, nullptr);
    if (!r) return false;
    const auto f = split(*r, '\t');
    if (field(f, "edges") != std::to_string(e.size())) {
      t.fail("bad staged reply: " + r->substr(0, 120));
      return false;
    }
    return true;
  };
  if (!ins.empty() && !staged("insert", ins)) return -1;
  if (!del.empty() && !staged("delete", del)) return -1;
  double rtt = 0;
  const auto r = exchange(c, t, "update seal", kScanTimeoutS, &rtt);
  if (!r) return -1;
  for (const auto& [u, v] : del) lg.erase(u, v);
  for (const auto& [u, v] : ins) lg.insert(u, v);
  ++generation;
  const auto f = split(*r, '\t');
  std::uint64_t patched = 0, rebuilt = 0;
  if (f.size() < 3 || f[2] != "sealed" || field(f, "generation") != std::to_string(generation) ||
      field(f, "applied_inserts") != std::to_string(ins.size()) ||
      field(f, "applied_deletes") != std::to_string(del.size()) ||
      !parse_u64(field(f, "patched").value_or("x"), patched) ||
      !parse_u64(field(f, "rebuilt").value_or("x"), rebuilt)) {
    t.fail("bad seal reply: " + r->substr(0, 160));
    return -1;
  }
  t.patched += patched;
  t.rebuilt += rebuilt;
  const auto e = exchange(c, t, "epoch", kPairTimeoutS, nullptr);
  if (!e) return -1;
  if (*e != "ok\tepoch\tgeneration=" + std::to_string(generation) +
                "\tpending_inserts=0\tpending_deletes=0") {
    t.fail("bad epoch after seal: " + e->substr(0, 120));
    return -1;
  }
  const auto s = exchange(c, t, "stats", kPairTimeoutS, nullptr);
  if (!s) return -1;
  const auto sf = split(*s, '\t');
  if (field(sf, "n") != std::to_string(lg.adj.size()) || field(sf, "m") != std::to_string(lg.m)) {
    t.fail("stats disagree with the edge tally (m=" + std::to_string(lg.m) + "): " +
           s->substr(0, 120));
    return -1;
  }
  return rtt * 1e3;
}

std::vector<Edge> absent_edges(const LiveGraph& lg, Rng& rng, std::size_t count, bool w_only) {
  std::vector<Edge> out;
  const auto n = static_cast<std::uint32_t>(lg.adj.size());
  while (out.size() < count) {
    auto u = static_cast<std::uint32_t>(rng.below(n));
    auto v = static_cast<std::uint32_t>(rng.below(n));
    if (w_only) {
      u -= u % 4;
      v -= v % 4;
    }
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (lg.has(u, v) || std::find(out.begin(), out.end(), Edge{u, v}) != out.end()) continue;
    out.emplace_back(u, v);
  }
  return out;
}

std::vector<Edge> present_w_edges(const LiveGraph& lg, Rng& rng, std::size_t count) {
  std::vector<Edge> out;
  const auto n = static_cast<std::uint32_t>(lg.adj.size());
  for (std::size_t tries = 0; out.size() < count && tries < count * 1000; ++tries) {
    std::uint32_t u = static_cast<std::uint32_t>(rng.below(n));
    u -= u % 4;
    const auto& nb = lg.adj[u];
    if (nb.empty()) continue;
    std::uint32_t v = nb[rng.below(nb.size())];
    if (!in_w(v)) continue;
    if (u > v) std::swap(u, v);
    if (std::find(out.begin(), out.end(), Edge{u, v}) != out.end()) continue;
    out.emplace_back(u, v);
  }
  return out;
}

std::string kernel_level(Conn& c, Tally& t) {
  const auto r = exchange(c, t, "metrics", kPairTimeoutS, nullptr);
  if (!r) return "";
  const std::string key = "probgraph_kernel_dispatch_level{level=\"";
  const auto p = r->find(key);
  if (p == std::string::npos) return "";
  const auto e = r->find('"', p + key.size());
  return r->substr(p + key.size(), e - p - key.size());
}

// --- Phases. ---

int cmd_drive(const std::string& workload, const std::string& phase, const std::string& dir,
              std::uint16_t port, std::uint64_t seed, double seconds) {
  const Truth truth = read_truth(dir);
  Tally t;
  const double start = now_s();

  if (phase == "scan") {
    Conn c(port);
    if (!c.ok()) die("cannot connect to port " + std::to_string(port));
    scan_probe(c, truth, t, true);
  } else if (phase == "seal") {
    std::uint32_t n = 0;
    const auto edges = read_edge_list(dir + "/edges.el", n);
    LiveGraph lg(make_graph(n, edges));
    Rng rng(seed ^ 0x5ea1ULL);
    Conn c(port);
    if (!c.ok()) die("cannot connect to port " + std::to_string(port));
    std::uint64_t generation = 1;
    for (int i = 0; i < kSealProbeCycles; ++i) {
      const double ms = seal_cycle(c, t, lg, generation, absent_edges(lg, rng, kSealProbeBatch, false), {});
      if (ms < 0) break;
      t.samples_ms["seal_ms"].push_back(ms);
    }
  } else if (phase == "window" && workload == "mine") {
    Conn c(port);
    if (!c.ok()) die("cannot connect to port " + std::to_string(port));
    t.kernel_level = kernel_level(c, t);
    // Each scan pass is followed by a stretch of the point mix (two
    // interactive connections and, to stay within four connections, one
    // bulk one), so the pair samples span the whole window and the host
    // stays busy while they are taken: on an idle shared host the tail of a
    // lone ping-pong is set by wake-ups, not by the server. Their answers
    // are checked but stay out of the deviation tally.
    const auto pool = read_pairs(dir);
    auto ics = interactive_pair(port, seed);
    auto bulk = bulk_conns(port, seed, 1);
    Tally pairs;
    double pair_s = 0;
    const double deadline = start + seconds;
    do {
      scan_pass(c, truth, t);
      const double p0 = now_s();
      pair_mix(ics, bulk, pool, 1e300, kMinePairsPerPass, pairs);
      pair_s += now_s() - p0;
    } while (now_s() < deadline && c.ok());
    t.merge(pairs, false);
    t.qps = static_cast<double>(pairs.answered) / pair_s;
  } else if (phase == "window" && workload == "point") {
    const auto pool = read_pairs(dir);
    {
      Conn c(port);
      t.kernel_level = kernel_level(c, t);
    }
    const double w0 = now_s();
    const double deadline = w0 + seconds;
    auto ics = interactive_pair(port, seed);
    auto bulk = bulk_conns(port, seed, 2);
    pair_mix(ics, bulk, pool, deadline, static_cast<std::size_t>(-1), t);
    t.elapsed_s = now_s() - w0;
    t.qps = static_cast<double>(t.answered) / t.elapsed_s;
  } else if (phase == "window" && workload == "churn") {
    const auto pool = read_pairs(dir);
    std::uint32_t n = 0;
    const auto edges = read_edge_list(dir + "/edges.el", n);
    LiveGraph lg(make_graph(n, edges));
    if (lg.tri != truth.tc || lg.wedges != truth.wedges) die("oracle mismatch on load");
    Conn c(port);
    if (!c.ok()) die("cannot connect to port " + std::to_string(port));
    t.kernel_level = kernel_level(c, t);
    const double w0 = now_s();
    const double deadline = w0 + seconds;
    // The readers run beside one bulk connection, as in the point mix, so
    // the host stays busy between seals and the readers' tail measures the
    // server rather than wake-ups.
    auto ics = interactive_pair(port, seed);
    auto bulk = bulk_conns(port, seed, 1);
    Tally readers;
    std::thread reader_thread([&] {
      pair_mix(ics, bulk, pool, deadline, static_cast<std::size_t>(-1), readers);
    });
    Rng rng(seed ^ 0xc4u);
    std::uint64_t generation = 1;
    Truth now = truth;
    while (c.ok()) {
      const auto ins = absent_edges(lg, rng, kChurnBatch, true);
      const auto del = present_w_edges(lg, rng, kChurnBatch);
      const double ms = seal_cycle(c, t, lg, generation, ins, del);
      if (ms < 0) break;
      t.samples_ms["seal_ms"].push_back(ms);
      now.m = lg.m;
      now.tc = lg.tri;
      now.wedges = lg.wedges;
      light_scans(c, now, t, true, false);
      if (now_s() >= deadline) break;
    }
    reader_thread.join();
    t.merge(readers);
    t.elapsed_s = now_s() - w0;
    t.qps = static_cast<double>(t.answered) / t.elapsed_s;
    // One full mining pass on the final generation, checked against a
    // recount that must agree with the per-edge tallies.
    const Graph g = lg.snapshot();
    const MiningTruth mt = mining_truth(g);
    if (mt.tc != lg.tri || mt.wedges != lg.wedges) {
      t.fail("per-edge triangle/wedge tally disagrees with the recount");
    }
    now.tc = mt.tc;
    now.wedges = mt.wedges;
    now.four_cliques = mt.four_cliques;
    now.jp_kept = mt.jp.kept_edges;
    now.jp_clusters = mt.jp.clusters;
    // Its answers are checked but, like every probe, stay out of the
    // deviation tally.
    Tally probe;
    if (c.ok()) scan_probe(c, now, probe, false);
    t.merge(probe, false);
  } else {
    die("unknown phase '" + phase + "' for workload '" + workload + "'");
  }
  if (t.elapsed_s == 0) t.elapsed_s = now_s() - start;
  print_tally(t);
  return 0;
}

// --- Effective parallelism. ---

double spin(std::uint64_t iters) {
  double x = 1.0;
  for (std::uint64_t i = 0; i < iters; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

int cmd_calib() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  constexpr std::uint64_t kIters = 40'000'000;
  volatile double sink = 0;
  double t0 = now_s();
  sink = sink + spin(kIters);
  const double one = now_s() - t0;
  t0 = now_s();
  std::vector<std::thread> th;
  std::vector<double> out(n);
  for (unsigned i = 0; i < n; ++i) th.emplace_back([&, i] { out[i] = spin(kIters); });
  for (auto& x : th) x.join();
  const double all = now_s() - t0;
  std::printf("{\"nproc\":%u,\"one_thread_s\":%.6f,\"all_threads_s\":%.6f,"
              "\"effective_parallelism\":%.3f}\n",
              n, one, all, n * one / all);
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  if (argc < 2) die("usage: pgbench gen|drive|calib [options]");
  const std::string cmd = argv[1];
  std::map<std::string, std::string> opt;
  for (int i = 2; i + 1 < argc; i += 2) opt[argv[i]] = argv[i + 1];
  const auto get = [&](const std::string& k) {
    const auto it = opt.find(k);
    if (it == opt.end()) die("missing " + k);
    return it->second;
  };
  try {
    if (cmd == "gen") return cmd_gen(get("--workload"), std::stoull(get("--seed")), get("--out"));
    if (cmd == "drive") {
      return cmd_drive(get("--workload"), get("--phase"), get("--dir"),
                       static_cast<std::uint16_t>(std::stoul(get("--port"))),
                       std::stoull(get("--seed")),
                       opt.count("--seconds") ? std::stod(opt["--seconds"]) : 0.0);
    }
    if (cmd == "calib") return cmd_calib();
  } catch (const std::exception& e) {
    die(e.what());
  }
  die("unknown command '" + cmd + "'");
}
