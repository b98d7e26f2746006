// pgbench_trace — the benchmark's traced mode: replays one workload
// in-process by calling the layers' public functions directly, records a span
// around every call into a layer (name, start, end, parent, request id), and
// derives the per-layer metrics from those spans.
//
//   pgbench_trace --workload W --dir DIR --seed S --spans FILE
//
// DIR holds the inputs `pgbench gen` wrote. Prints a self-time table per
// layer, then one JSON line: {"attempted", "failed", "metrics"}.
// Spans are kept in memory and written to FILE (JSON lines) at the end.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "algorithms/clique_count.hpp"
#include "algorithms/clustering.hpp"
#include "algorithms/clustering_coefficient.hpp"
#include "algorithms/triangle_count.hpp"
#include "common.hpp"
#include "core/kernels/kernels.hpp"
#include "core/prob_graph.hpp"
#include "engine/engine.hpp"
#include "engine/generation.hpp"
#include "engine/protocol.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "graph/orientation.hpp"
#include "io/snapshot.hpp"
#include "live/apply.hpp"
#include "net/transport.hpp"
#include "obs/kernel_metrics.hpp"

namespace pg = probgraph;
namespace eng = probgraph::engine;

namespace {

using pb::now_s;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "pgbench_trace: %s\n", msg.c_str());
  std::exit(2);
}

// --- Spans. ---

struct Span {
  std::string name;
  std::string layer;
  std::uint64_t start = 0, end = 0;
  int parent = -1;
  std::uint64_t req = 0;
  [[nodiscard]] double us() const { return static_cast<double>(end - start) / 1e3; }
};

/// In-memory span recorder for the replay thread. Spans nest: a span opened
/// while another is open becomes its child.
class Tracer {
 public:
  int begin(std::string name, std::string layer, std::uint64_t req = 0) {
    spans_.push_back({std::move(name), std::move(layer), now_ns(), 0,
                      stack_.empty() ? -1 : stack_.back(), req});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end = now_ns();
    stack_.pop_back();
  }
  template <typename F>
  auto operator()(const std::string& name, const std::string& layer, std::uint64_t req, F&& f) {
    const int id = begin(name, layer, req);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      end(id);
    } else {
      auto r = f();
      end(id);
      return r;
    }
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations (us) of every span called `name`.
  [[nodiscard]] std::vector<double> us(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.us());
    }
    return out;
  }
  [[nodiscard]] double median_us(const std::string& name) const {
    const auto v = us(name);
    if (v.empty()) die("no span " + name);
    return pb::quantile(v, 0.5);
  }
  [[nodiscard]] double min_us(const std::string& name) const {
    const auto v = us(name);
    if (v.empty()) die("no span " + name);
    return *std::min_element(v.begin(), v.end());
  }

  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) die("cannot write " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"start_ns\":%llu,"
                   "\"end_ns\":%llu,\"parent\":%d,\"req\":%llu}\n",
                   i, s.name.c_str(), s.layer.c_str(), static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end), s.parent,
                   static_cast<unsigned long long>(s.req));
    }
    std::fclose(f);
  }

  /// Self time per layer: a span's duration minus what its children cover.
  void print_self_table() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.us();
    }
    std::map<std::string, std::pair<std::size_t, double>> self;
    double total = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& e = self[spans_[i].layer];
      ++e.first;
      e.second += spans_[i].us() - child_us[i];
      total += spans_[i].us() - child_us[i];
    }
    std::printf("%-12s %10s %14s %8s\n", "layer", "spans", "self_ms", "share");
    for (const auto& [layer, e] : self) {
      std::printf("%-12s %10zu %14.3f %7.2f%%\n", layer.c_str(), e.first, e.second / 1e3,
                  100.0 * e.second / total);
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// --- Inputs. ---

constexpr pg::SketchKind kKinds[2] = {pg::SketchKind::kBloomFilter, pg::SketchKind::kKmv};
const char* const kKindNames[2] = {"bf", "kmv"};
constexpr std::size_t kPairRequests = 2000;
constexpr std::size_t kBatch = 32;
constexpr std::size_t kBatches = 100;

/// The point mix: 1–8 pairs per request, kinds alternating.
eng::PairEstimate pair_query(const std::vector<pb::PairRow>& pool, pb::Rng& rng, std::size_t serial) {
  eng::PairEstimate q;
  q.kind = eng::EstimateKind::kIntersection;
  q.sketch = kKinds[serial % 2];
  const std::size_t n = 1 + rng.below(8);
  for (std::size_t i = 0; i < n; ++i) {
    const pb::PairRow& p = pool[rng.below(pool.size())];
    q.pairs.push_back({p.u, p.v});
  }
  return q;
}

std::string pair_line(const eng::PairEstimate& q) {
  std::string line = "pair intersection";
  for (const auto& p : q.pairs) line += ' ' + std::to_string(p.u) + ' ' + std::to_string(p.v);
  line += q.sketch == pg::SketchKind::kKmv ? " kind=kmv" : " kind=bf";
  return line;
}

// --- Kernel tallies. ---

struct KernelId {
  const char* name;
  pg::obs::KernelOp op;
};
constexpr KernelId kKernels[] = {
    {"and_popcount", pg::obs::KernelOp::kAndPopcount},
    {"and3_popcount", pg::obs::KernelOp::kAnd3Popcount},
    {"intersect_count_merge", pg::obs::KernelOp::kIntersectCountMerge},
    {"intersect_count_gallop", pg::obs::KernelOp::kIntersectCountGallop},
    {"min_merge", pg::obs::KernelOp::kMinMerge},
};

std::vector<std::pair<std::uint64_t, std::uint64_t>> kernel_tallies() {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const KernelId& k : kKernels) {
    const auto i = static_cast<std::size_t>(k.op);
    out.emplace_back(pg::obs::g_kernel_counters.invocations[i].value(),
                     pg::obs::g_kernel_counters.elements[i].value());
  }
  return out;
}

// --- A timing SessionHost: records the host's share of Session time. ---

class TimingHost final : public eng::SessionHost {
 public:
  TimingHost(std::unique_ptr<eng::SessionHost> inner, Tracer& tr) : inner_(std::move(inner)), tr_(tr) {}
  eng::QueryResult run(const eng::Query& q) override {
    return tr_("engine.host", "engine", 0, [&] { return inner_->run(q); });
  }
  std::vector<eng::BatchItem> run_batch(std::span<const eng::Query> qs) override {
    return tr_("engine.host", "engine", 0, [&] { return inner_->run_batch(qs); });
  }
  std::string live(const eng::LiveRequest& r) override { return inner_->live(r); }

 private:
  std::unique_ptr<eng::SessionHost> inner_;
  Tracer& tr_;
};

// --- Loopback client for the in-process transports. ---

class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_port = htons(port);
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0) {
      die("cannot connect to the in-process transport");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  void send(const std::string& s) {
    std::size_t off = 0;
    while (off < s.size()) {
      const ssize_t w = ::send(fd_, s.data() + off, s.size() - off, MSG_NOSIGNAL);
      if (w <= 0) die("send failed");
      off += static_cast<std::size_t>(w);
    }
  }
  std::string line() {
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string l = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return l;
      }
      char tmp[65536];
      const ssize_t got = ::recv(fd_, tmp, sizeof tmp, 0);
      if (got <= 0) die("transport closed the connection");
      buf_.append(tmp, static_cast<std::size_t>(got));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct Counts {
  std::uint64_t attempted = 0, failed = 0;
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "pgbench_trace: failed: %s\n", what.c_str());
    }
  }
};

double rel(double est, double exact) { return exact > 0 ? std::fabs(est - exact) / exact : 0.0; }

std::vector<pg::Edge> to_edges(const std::vector<pb::Edge>& e) {
  return {e.begin(), e.end()};
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> opt;
  for (int i = 1; i + 1 < argc; i += 2) opt[argv[i]] = argv[i + 1];
  for (const char* k : {"--workload", "--dir", "--seed", "--spans"}) {
    if (opt.count(k) == 0) die(std::string("missing ") + k);
  }
  const std::string workload = opt["--workload"];
  const std::string dir = opt["--dir"];
  const std::uint64_t seed = std::stoull(opt["--seed"]);
  const bool churn = workload == "churn";
  const pb::Truth truth = pb::read_truth(dir);
  const auto pool = pb::read_pairs(dir, 4096);
  const std::string work = dir + "/trace.tmp";
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);

  Tracer tr;
  Counts counts;
  std::map<std::string, double> m;

  try {
    // --- graph: edge-list parse, CSR build, orientation. ---
    const std::string el = dir + "/edges.el";
    const pg::CsrGraph g = tr("graph.read_edge_list", "graph", 0, [&] { return pg::io::read_edge_list(el); });
    std::uint32_t n = 0;
    auto parsed = to_edges(pb::read_edge_list(el, n));
    const pg::CsrGraph g2 = tr("graph.build_csr", "graph", 0,
                               [&] { return pg::GraphBuilder::from_edges(std::move(parsed), n); });
    counts.check(g.num_edges() == truth.m && g2.num_edges() == truth.m, "edge count");
    const pg::CsrGraph dag = tr("graph.orient", "graph", 0, [&] { return pg::degree_orient(g); });
    m["graph.read_edges_s"] = (tr.median_us("graph.read_edge_list") - tr.median_us("graph.build_csr")) / 1e6;
    m["graph.build_csr_s"] = tr.median_us("graph.build_csr") / 1e6;
    m["graph.orient_s"] = tr.median_us("graph.orient") / 1e6;

    // --- core: sketch construction, the same substrates `pgtool build
    // --kinds bf,kmv --orient both` packs. ---
    std::vector<std::unique_ptr<pg::ProbGraph>> sketches;
    std::vector<pg::io::SnapshotSubstrate> subs;
    for (int k = 0; k < 2; ++k) {
      pg::ProbGraphConfig cfg;
      cfg.kind = kKinds[k];
      const std::string base = std::string("core.sketch_build.") + kKindNames[k];
      sketches.push_back(tr(base + ".sym", "core", 0, [&] { return std::make_unique<pg::ProbGraph>(g, cfg); }));
      subs.push_back({sketches.back().get(), false});
      cfg.budget_reference_bytes = g.memory_bytes();
      sketches.push_back(tr(base + ".dag", "core", 0, [&] { return std::make_unique<pg::ProbGraph>(dag, cfg); }));
      subs.push_back({sketches.back().get(), true});
      for (const char* o : {".sym", ".dag"}) {
        m[std::string("core.sketch_build_s.") + kKindNames[k] + o] = tr.median_us(base + o) / 1e6;
      }
    }

    // --- io: save, then map + checksum validate. ---
    const std::string snap = work + "/g.pgs";
    tr("io.save_snapshot", "io", 0, [&] { pg::io::save_snapshot(snap, subs); });
    tr("io.load_snapshot", "io", 0, [&] { (void)pg::io::load_snapshot(snap); });
    m["io.save_s"] = tr.median_us("io.save_snapshot") / 1e6;
    m["io.load_s"] = tr.median_us("io.load_snapshot") / 1e6;
    sketches.clear();

    eng::Engine engine = eng::Engine::from_snapshot(snap);
    const pg::io::Snapshot& s = *engine.snapshot();
    const pg::CsrGraph& sym = *s.graph_for(false);
    const pg::CsrGraph& mdag = *s.graph_for(true);

    // --- algorithms: direct calls on the mapped substrates, against the
    // benchmark's exact values. ---
    const double tc_exact = static_cast<double>(truth.tc);
    const double cc_exact = pb::clustering_coefficient(truth.tc, truth.wedges);
    const auto jp_dev = [&](const pg::algo::ClusteringResult& r) {
      return (rel(static_cast<double>(r.num_clusters), static_cast<double>(truth.jp_clusters)) +
              rel(static_cast<double>(r.kept_edges), static_cast<double>(truth.jp_kept))) / 2;
    };
    constexpr int kReps = 3;
    for (int k = 0; k < 2; ++k) {
      const std::string kn = kKindNames[k];
      const pg::ProbGraph& pgd = *s.find_substrate(kKinds[k], true);
      const pg::ProbGraph& pgs = *s.find_substrate(kKinds[k], false);
      double tc = 0, cc = 0;
      pg::algo::ClusteringResult jp;
      for (int r = 0; r < kReps; ++r) {
        tc = tr("algorithms.tc." + kn, "algorithms", 0,
                [&] { return pg::algo::triangle_count_probgraph(pgd, pg::algo::TcMode::kOriented); });
        cc = tr("algorithms.cc." + kn, "algorithms", 0, [&] {
          return pg::algo::global_clustering_coefficient(
              sym, pg::algo::triangle_count_probgraph(pgs, pg::algo::TcMode::kFull));
        });
        jp = tr("algorithms.cluster." + kn, "algorithms", 0, [&] {
          return pg::algo::jarvis_patrick_probgraph(pgs, pg::algo::SimilarityMeasure::kJaccard, pb::kClusterTau);
        });
      }
      counts.check(std::isfinite(tc) && tc >= 0 && cc >= 0 && cc <= 1, "sketch estimates in range");
      m["core.rel_dev.tc." + kn] = rel(tc, tc_exact);
      m["core.rel_dev.cc." + kn] = rel(cc, cc_exact);
      m["core.rel_dev.cluster." + kn] = jp_dev(jp);
      for (const char* q : {"tc", "cc", "cluster"}) {
        m["algorithms." + std::string(q) + "." + kn + "_ms"] =
            tr.min_us("algorithms." + std::string(q) + "." + kn) / 1e3;
      }
      double err = 0, base = 0;
      for (const pb::PairRow& p : pool) {
        err += std::fabs(pgs.est_intersection(p.u, p.v) - static_cast<double>(p.exact));
        base += static_cast<double>(p.exact);
      }
      m["core.rel_dev.pair." + kn] = err / base;
    }
    {
      const pg::ProbGraph& pgd = *s.find_substrate(pg::SketchKind::kBloomFilter, true);
      const double c4 = tr("algorithms.4cc.bf", "algorithms", 0,
                           [&] { return pg::algo::four_clique_count_probgraph(pgd); });
      m["core.rel_dev.4cc.bf"] = rel(c4, static_cast<double>(truth.four_cliques));
      m["algorithms.4cc.bf_ms"] = tr.min_us("algorithms.4cc.bf") / 1e3;
      const auto tc = tr("algorithms.exact.tc", "algorithms", 0,
                         [&] { return pg::algo::triangle_count_exact_oriented(mdag); });
      const auto cc = tr("algorithms.exact.cc", "algorithms", 0, [&] {
        return pg::algo::global_clustering_coefficient(
            sym, static_cast<double>(pg::algo::triangle_count_exact_oriented(mdag)));
      });
      const auto jp = tr("algorithms.exact.cluster", "algorithms", 0, [&] {
        return pg::algo::jarvis_patrick_exact(sym, pg::algo::SimilarityMeasure::kJaccard, pb::kClusterTau);
      });
      const auto c4x = tr("algorithms.exact.4cc", "algorithms", 0,
                          [&] { return pg::algo::four_clique_count_exact_oriented(mdag); });
      counts.check(tc == truth.tc && cc == cc_exact && jp.kept_edges == truth.jp_kept &&
                       jp.num_clusters == truth.jp_clusters && c4x == truth.four_cliques,
                   "exact baselines disagree with the benchmark's own counts");
      for (const char* q : {"tc", "cc", "cluster", "4cc"}) {
        m["algorithms.exact." + std::string(q) + "_ms"] = tr.min_us("algorithms.exact." + std::string(q)) / 1e3;
      }
    }

    // --- engine: Engine::run over the same scans; its own time is the
    // difference to the direct call. ---
    const std::pair<const char*, eng::Query> scans[] = {
        {"tc", eng::TriangleCount{false, pg::SketchKind::kBloomFilter}},
        {"cc", eng::ClusteringCoeff{false, pg::SketchKind::kBloomFilter}},
        {"cluster", eng::Cluster{pg::algo::SimilarityMeasure::kJaccard, pb::kClusterTau, false,
                                 pg::SketchKind::kBloomFilter}},
        {"4cc", eng::FourCliqueCount{false, pg::SketchKind::kBloomFilter}},
    };
    // Paired back-to-back repetitions; the median difference is the
    // engine's own share (at the noise floor of these ms-scale scans).
    for (const auto& [name, q] : scans) {
      const bool heavy = std::string(name) == "4cc";
      const pg::ProbGraph& pgd = *s.find_substrate(pg::SketchKind::kBloomFilter, true);
      const pg::ProbGraph& pgs = *s.find_substrate(pg::SketchKind::kBloomFilter, false);
      std::vector<double> diff;
      for (int r = 0; r < (heavy ? 1 : 5); ++r) {
        const int id = tr.begin(std::string("engine.run.") + name, "engine");
        (void)engine.run(q);
        tr.end(id);
        const double run_us = tr.spans()[static_cast<std::size_t>(id)].us();
        const double t0 = now_s();
        if (std::string(name) == "tc") {
          (void)pg::algo::triangle_count_probgraph(pgd, pg::algo::TcMode::kOriented);
        } else if (std::string(name) == "cc") {
          (void)pg::algo::global_clustering_coefficient(
              sym, pg::algo::triangle_count_probgraph(pgs, pg::algo::TcMode::kFull));
        } else if (std::string(name) == "cluster") {
          (void)pg::algo::jarvis_patrick_probgraph(pgs, pg::algo::SimilarityMeasure::kJaccard,
                                                   pb::kClusterTau);
        } else if (!heavy || r > 0) {
          (void)pg::algo::four_clique_count_probgraph(pgd);
        }
        // One 4cc repetition: its direct call is the span timed above.
        const double direct_us = heavy ? tr.min_us("algorithms.4cc.bf") : (now_s() - t0) * 1e6;
        diff.push_back(run_us - direct_us);
      }
      m[std::string("engine.self_us.") + name] = pb::quantile(diff, 0.5);
    }

    // Pair requests through Engine::run and Engine::run_batch.
    pb::Rng rng(seed ^ 0x7ace);
    std::vector<eng::PairEstimate> reqs;
    for (std::size_t i = 0; i < kPairRequests; ++i) reqs.push_back(pair_query(pool, rng, i));
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const auto r = tr(std::string("engine.run.pair.") + kKindNames[i % 2], "engine", i,
                        [&] { return engine.run(reqs[i]); });
      counts.check(r.pairs.size() == reqs[i].pairs.size(), "pair result size");
    }
    m["engine.run_us.pair.bf"] = tr.median_us("engine.run.pair.bf");
    m["engine.run_us.pair.kmv"] = tr.median_us("engine.run.pair.kmv");
    {
      std::vector<eng::Query> batch(reqs.begin(), reqs.begin() + kBatch);
      for (std::size_t b = 0; b < kBatches; ++b) {
        const auto items = tr("engine.run_batch", "engine", b, [&] { return engine.run_batch(batch); });
        counts.check(items.size() == kBatch && items.back().result.has_value(), "run_batch");
      }
      m["engine.run_batch_us_per_query"] = tr.median_us("engine.run_batch") / kBatch;
    }

    // Session parse and format around a timing host.
    {
      TimingHost host(eng::make_session_host(engine), tr);
      eng::Session session(host);
      std::vector<double> self;
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        const int id = tr.begin("engine.session", "engine", i);
        const std::size_t before = tr.spans().size();
        session.feed(pair_line(reqs[i]) + "\n");
        session.pump();
        tr.end(id);
        double host_us = 0;
        for (std::size_t k = before; k < tr.spans().size(); ++k) host_us += tr.spans()[k].us();
        self.push_back(tr.spans()[static_cast<std::size_t>(id)].us() - host_us);
        counts.check(session.output().rfind("ok\tpair\t", 0) == 0, "session reply");
        session.output().clear();
      }
      m["engine.session.self_us"] = pb::quantile(self, 0.5);
    }

    // --- engine.live + live: pins, apply and seal on a copy. ---
    {
      const std::string live_snap = work + "/live.pgs";
      std::filesystem::copy_file(snap, live_snap);
      eng::LiveEngine live(live_snap);
      {
        eng::LiveEngine::Reader reader(live);
        std::vector<double> diff;
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          tr("engine.live.pinned_run", "engine", i, [&] {
            eng::LiveEngine::Reader::Pin pin(reader);
            (void)pin.engine().run(reqs[i]);
          });
          tr("engine.run.pair.unpinned", "engine", i, [&] { (void)engine.run(reqs[i]); });
          const auto& sp = tr.spans();
          diff.push_back(sp[sp.size() - 2].us() - sp.back().us());
        }
        m["engine.live.pin_us"] = pb::quantile(diff, 0.5);
      }
      // The edits of one writer cycle: churn stages 256 inserts and 256
      // deletes among W vertices, the other workloads' seal probe 1000
      // inserts.
      std::uint32_t nn = 0;
      const auto base_edges = pb::read_edge_list(el, nn);
      const pb::Graph bg = pb::make_graph(nn, base_edges);
      pb::Rng er(seed ^ 0x5ea1ULL);
      const auto has = [&](std::uint32_t u, std::uint32_t v) {
        const auto nb = bg.nbrs(u);
        return std::binary_search(nb.begin(), nb.end(), v);
      };
      pg::live::DeltaBatch batch;
      std::set<pb::Edge> seen;
      while (batch.inserts.size() < (churn ? 256u : 1000u)) {
        auto u = static_cast<std::uint32_t>(er.below(nn));
        auto v = static_cast<std::uint32_t>(er.below(nn));
        if (churn) {
          u -= u % 4;  // both endpoints in W
          v -= v % 4;
        }
        if (u == v) continue;
        if (u > v) std::swap(u, v);
        if (has(u, v) || !seen.insert({u, v}).second) continue;
        batch.inserts.emplace_back(u, v);
      }
      while (churn && batch.deletes.size() < 256) {
        auto u = static_cast<std::uint32_t>(er.below(nn));
        u -= u % 4;
        if (bg.deg(u) == 0) continue;
        std::uint32_t v = bg.nbrs(u)[er.below(bg.deg(u))];
        if (!pb::in_w(v)) continue;
        if (u > v) std::swap(u, v);
        if (!seen.insert({u, v}).second) continue;
        batch.deletes.emplace_back(u, v);
      }
      const auto up = tr("live.apply_batch", "live", 0,
                         [&] { return pg::live::apply_batch(*engine.snapshot(), batch); });
      counts.check(up.stats.inserts_applied == batch.inserts.size() &&
                       up.stats.deletes_applied == batch.deletes.size(),
                   "apply_batch");
      (void)live.stage(false, batch.inserts);
      if (!batch.deletes.empty()) (void)live.stage(true, batch.deletes);
      const auto sr = tr("engine.live.seal", "engine", 0, [&] { return live.seal(); });
      counts.check(sr.sealed && sr.generation == 2, "seal");
      m["engine.live.seal_ms"] = tr.median_us("engine.live.seal") / 1e3;
      m["live.apply_ms"] = tr.median_us("live.apply_batch") / 1e3;
      m["live.patched"] = static_cast<double>(sr.stats.vertices_patched);
      m["live.rebuilt"] = static_cast<double>(sr.stats.vertices_rebuilt);
    }

    // --- net: both transports, interactive and pipelined. ---
    const double session_us = [&] {
      std::vector<double> v = tr.us("engine.session");
      return pb::quantile(v, 0.5);
    }();
    for (const auto kind : {pg::net::TransportKind::kThreads, pg::net::TransportKind::kEpoll}) {
      const std::string tn = pg::net::transport_kind_name(kind);
      pg::net::ServeOptions o;
      o.engine = &engine;
      auto transport = pg::net::make_transport(kind, o);
      std::thread server([&] { transport->run(); });
      {
        Client c(transport->port());
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          const std::string line = pair_line(reqs[i]) + "\n";
          const std::string reply = tr("net.rtt." + tn, "net", i, [&] {
            c.send(line);
            return c.line();
          });
          counts.check(reply.rfind("ok\tpair\t", 0) == 0, "net reply");
        }
        std::string burst;
        for (std::size_t i = 0; i < kBatch; ++i) burst += pair_line(reqs[i]) + "\n";
        for (std::size_t b = 0; b < kBatches; ++b) {
          tr("net.pipelined." + tn, "net", b, [&] {
            c.send(burst);
            for (std::size_t i = 0; i < kBatch; ++i) counts.check(c.line().rfind("ok\t", 0) == 0, "pipelined reply");
          });
        }
      }
      transport->request_stop();
      server.join();
      m["net.rtt_us." + tn] = tr.median_us("net.rtt." + tn);
      m["net.self_us." + tn] = tr.median_us("net.rtt." + tn) - session_us;
      m["net.pipelined_us_per_query." + tn] = tr.median_us("net.pipelined." + tn) / kBatch;
    }

    // --- The workload's own request mix, once, for the kernel tallies. ---
    const auto before = kernel_tallies();
    if (workload == "mine") {
      const eng::Query pass[] = {
          eng::TriangleCount{false, pg::SketchKind::kBloomFilter},
          eng::TriangleCount{false, pg::SketchKind::kKmv},
          eng::ClusteringCoeff{false, pg::SketchKind::kBloomFilter},
          eng::ClusteringCoeff{false, pg::SketchKind::kKmv},
          eng::Cluster{pg::algo::SimilarityMeasure::kJaccard, pb::kClusterTau, false, pg::SketchKind::kBloomFilter},
          eng::Cluster{pg::algo::SimilarityMeasure::kJaccard, pb::kClusterTau, false, pg::SketchKind::kKmv},
          eng::FourCliqueCount{false, pg::SketchKind::kBloomFilter},
          eng::TriangleCount{true, std::nullopt},
          eng::ClusteringCoeff{true, std::nullopt},
          eng::Cluster{pg::algo::SimilarityMeasure::kJaccard, pb::kClusterTau, true, std::nullopt},
          eng::FourCliqueCount{true, std::nullopt},
      };
      for (std::size_t i = 0; i < std::size(pass); ++i) {
        tr("engine.run.pass", "engine", i, [&] { (void)engine.run(pass[i]); });
      }
    } else {
      // One pass = the requests one interactive connection sends; churn
      // adds the writer's post-seal tc and cc per kind.
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        tr("engine.run.pass", "engine", i, [&] { (void)engine.run(reqs[i]); });
      }
      if (churn) {
        for (const auto k : kKinds) {
          tr("engine.run.pass", "engine", 0, [&] { (void)engine.run(eng::TriangleCount{false, k}); });
          tr("engine.run.pass", "engine", 0, [&] { (void)engine.run(eng::ClusteringCoeff{false, k}); });
        }
      }
    }
    const auto after = kernel_tallies();
    for (std::size_t k = 0; k < std::size(kKernels); ++k) {
      const std::string base = std::string("core.kernels.") + kKernels[k].name;
      m[base + ".calls"] = static_cast<double>(after[k].first - before[k].first);
      m[base + ".elements"] = static_cast<double>(after[k].second - before[k].second);
    }

    // --- Kernel cost per element: the public entry points over the pair
    // pool's operands (neighbourhoods, BF rows, KMV rows). ---
    {
      const pg::ProbGraph& bf = *s.find_substrate(pg::SketchKind::kBloomFilter, false);
      const pg::ProbGraph& kmv = *s.find_substrate(pg::SketchKind::kKmv, false);
      volatile std::uint64_t sink = 0;
      const auto replay = [&](const char* name, auto&& one) {
        std::uint64_t elems = 0;
        double t = 0;
        int reps = 0;
        const int id = tr.begin(std::string("core.kernels.replay.") + name, "core");
        const double t0 = now_s();
        do {
          for (std::size_t i = 0; i < pool.size(); ++i) elems += one(pool[i], pool[(i * 7 + 1) % pool.size()]);
          ++reps;
          t = now_s() - t0;
        } while (t < 0.05 && reps < 1000);
        tr.end(id);
        m[std::string("core.kernels.") + name + ".ns_per_element"] = t * 1e9 / static_cast<double>(elems);
      };
      replay("and_popcount", [&](const pb::PairRow& p, const pb::PairRow&) {
        sink = sink + pg::kernels::and_popcount(bf.bf_words(p.u), bf.bf_words(p.v));
        return bf.bf_words(p.u).size();
      });
      replay("and3_popcount", [&](const pb::PairRow& p, const pb::PairRow& q) {
        sink = sink + pg::kernels::and3_popcount(bf.bf_words(p.u), bf.bf_words(p.v), bf.bf_words(q.u));
        return bf.bf_words(p.u).size();
      });
      replay("intersect_count_merge", [&](const pb::PairRow& p, const pb::PairRow&) {
        sink = sink + pg::kernels::intersect_count_merge(sym.neighbors(p.u), sym.neighbors(p.v));
        return sym.neighbors(p.u).size() + sym.neighbors(p.v).size();
      });
      replay("intersect_count_gallop", [&](const pb::PairRow& p, const pb::PairRow&) {
        sink = sink + pg::kernels::intersect_count_gallop(sym.neighbors(p.u), sym.neighbors(p.v));
        return sym.neighbors(p.u).size() + sym.neighbors(p.v).size();
      });
      replay("min_merge", [&](const pb::PairRow& p, const pb::PairRow&) {
        sink = sink + pg::kernels::min_merge(kmv.kmv_values(p.u), kmv.kmv_values(p.v), kmv.minhash_k()).taken;
        return kmv.kmv_values(p.u).size() + kmv.kmv_values(p.v).size();
      });
    }

    // Tracing overhead: the same interactive round trips with and without
    // span recording around them.
    {
      pg::net::ServeOptions o;
      o.engine = &engine;
      auto transport = pg::net::make_transport(pg::net::TransportKind::kThreads, o);
      std::thread server([&] { transport->run(); });
      std::vector<double> off;
      {
        Client c(transport->port());
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          const std::string line = pair_line(reqs[i]) + "\n";
          const double t0 = now_s();
          c.send(line);
          (void)c.line();
          off.push_back((now_s() - t0) * 1e6);
        }
      }
      transport->request_stop();
      server.join();
      m["trace.rtt_us.spans_off"] = pb::quantile(off, 0.5);
    }
  } catch (const std::exception& e) {
    die(e.what());
  }

  tr.print_self_table();
  tr.write(opt["--spans"]);
  std::filesystem::remove_all(work);
  std::ostringstream o;
  o.precision(17);
  o << "{\"attempted\":" << counts.attempted << ",\"failed\":" << counts.failed
    << ",\"metrics\":{";
  bool first = true;
  for (const auto& [k, v] : m) {
    o << (first ? "" : ",") << '"' << k << "\":" << v;
    first = false;
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  return 0;
}
