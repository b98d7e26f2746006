// Shared pieces of the benchmark's own code: a seeded generator, the two
// input-graph generators, a plain CSR, and the exact oracle the replies are
// checked against. None of this calls the ProbGraph library: the checks must
// stay independent of the code they check.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

namespace pb {

using Edge = std::pair<std::uint32_t, std::uint32_t>;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- xoshiro256** seeded through splitmix64. ---

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& w : s_) {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      w = z ^ (z >> 31);
    }
  }
  std::uint64_t next() {
    const std::uint64_t r = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return r;
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  std::uint64_t s_[4]{};
};

// --- Plain symmetric CSR with sorted neighborhoods. ---

struct Graph {
  std::uint32_t n = 0;
  std::vector<std::uint64_t> off;  // n + 1
  std::vector<std::uint32_t> adj;

  [[nodiscard]] std::uint64_t m() const { return adj.size() / 2; }
  [[nodiscard]] std::uint64_t deg(std::uint32_t v) const { return off[v + 1] - off[v]; }
  [[nodiscard]] std::span<const std::uint32_t> nbrs(std::uint32_t v) const {
    return {adj.data() + off[v], adj.data() + off[v + 1]};
  }
};

/// `edges` must be normalized (u < v, unique).
inline Graph make_graph(std::uint32_t n, const std::vector<Edge>& edges) {
  Graph g;
  g.n = n;
  g.off.assign(std::size_t{n} + 1, 0);
  for (const auto& [u, v] : edges) {
    ++g.off[u + 1];
    ++g.off[v + 1];
  }
  for (std::uint32_t v = 0; v < n; ++v) g.off[v + 1] += g.off[v];
  g.adj.resize(g.off[n]);
  std::vector<std::uint64_t> pos(g.off.begin(), g.off.end() - 1);
  for (const auto& [u, v] : edges) {
    g.adj[pos[u]++] = v;
    g.adj[pos[v]++] = u;
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    std::sort(g.adj.begin() + static_cast<std::ptrdiff_t>(g.off[v]),
              g.adj.begin() + static_cast<std::ptrdiff_t>(g.off[v + 1]));
  }
  return g;
}

inline void normalize(std::vector<Edge>& edges) {
  std::vector<Edge> out;
  out.reserve(edges.size());
  for (auto [u, v] : edges) {
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    out.emplace_back(u, v);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  edges = std::move(out);
}

/// Runs fn(begin, end, worker) over [0, n) in dynamic chunks of `chunk` on
/// `threads` threads.
template <typename Fn>
void parallel_chunks(std::uint64_t n, unsigned threads, Fn fn, std::uint64_t chunk = 256) {
  std::atomic<std::uint64_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (;;) {
        const std::uint64_t b = next.fetch_add(chunk);
        if (b >= n) break;
        fn(b, std::min(n, b + chunk), t);
      }
    });
  }
  for (auto& th : pool) th.join();
}

inline unsigned oracle_threads() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

// --- Input generators. ---

/// R-MAT (Graph500 quadrant probabilities by default), normalized. Samples
/// come in fixed blocks with their own streams, so the graph depends on the
/// seed alone, not on the thread count.
inline std::vector<Edge> rmat(unsigned scale, unsigned edge_factor, std::uint64_t seed,
                              double a = 0.57, double b = 0.19, double c = 0.19) {
  constexpr std::uint64_t kBlock = 1 << 16;
  const std::uint64_t samples = static_cast<std::uint64_t>(edge_factor) << scale;
  std::vector<Edge> edges(samples);
  const std::uint64_t blocks = (samples + kBlock - 1) / kBlock;
  parallel_chunks(blocks, oracle_threads(), [&](std::uint64_t b0, std::uint64_t b1, unsigned) {
    for (std::uint64_t blk = b0; blk < b1; ++blk) {
      Rng rng(seed * 0x100000001b3ULL + blk);
      for (std::uint64_t e = blk * kBlock; e < std::min(samples, (blk + 1) * kBlock); ++e) {
        std::uint32_t u = 0, v = 0;
        for (unsigned level = 0; level < scale; ++level) {
          const double r = rng.uniform();
          u <<= 1;
          v <<= 1;
          if (r < a) {
          } else if (r < a + b) {
            v |= 1;
          } else if (r < a + b + c) {
            u |= 1;
          } else {
            u |= 1;
            v |= 1;
          }
        }
        edges[e] = {u, v};
      }
    }
  }, 1);
  normalize(edges);
  return edges;
}

/// Watts–Strogatz: ring lattice with k neighbours per side, each lattice edge
/// rewired with probability beta to a uniform endpoint that creates neither a
/// self loop nor a duplicate.
inline std::vector<Edge> watts_strogatz(std::uint32_t n, std::uint32_t k, double beta,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::unordered_set<std::uint64_t> present;
  present.reserve(std::size_t{n} * k * 2);
  const auto key = [](std::uint32_t u, std::uint32_t v) {
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  };
  std::vector<Edge> edges;
  edges.reserve(std::size_t{n} * k);
  for (std::uint32_t j = 1; j <= k; ++j) {
    for (std::uint32_t u = 0; u < n; ++u) {
      const std::uint32_t v = (u + j) % n;
      edges.emplace_back(u, v);
      present.insert(key(u, v));
    }
  }
  for (auto& [u, v] : edges) {
    if (rng.uniform() >= beta) continue;
    for (int attempt = 0; attempt < 32; ++attempt) {
      const auto w = static_cast<std::uint32_t>(rng.below(n));
      if (w == u || present.count(key(u, w)) != 0) continue;
      present.erase(key(u, v));
      present.insert(key(u, w));
      v = w;
      break;
    }
  }
  normalize(edges);
  return edges;
}

// --- Edge-list files ("# n=N" header, one "u v" line per edge). ---

inline void write_edge_list(const std::string& path, std::uint32_t n,
                            const std::vector<Edge>& edges) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "# perfbench edge list: n=%u m=%zu\n", n, edges.size());
  std::string buf;
  buf.reserve(1 << 20);
  char tmp[32];
  for (const auto& [u, v] : edges) {
    const int len = std::snprintf(tmp, sizeof tmp, "%u %u\n", u, v);
    buf.append(tmp, static_cast<std::size_t>(len));
    if (buf.size() > (1 << 20) - 64) {
      std::fwrite(buf.data(), 1, buf.size(), f);
      buf.clear();
    }
  }
  std::fwrite(buf.data(), 1, buf.size(), f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

inline std::vector<Edge> read_edge_list(const std::string& path, std::uint32_t& n) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string line;
  std::vector<Edge> edges;
  n = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      const auto pos = line.find("n=");
      if (pos != std::string::npos) n = static_cast<std::uint32_t>(std::stoul(line.substr(pos + 2)));
      continue;
    }
    unsigned long u = 0, v = 0;
    if (std::sscanf(line.c_str(), "%lu %lu", &u, &v) != 2) {
      throw std::runtime_error("malformed edge line in " + path);
    }
    edges.emplace_back(static_cast<std::uint32_t>(u), static_cast<std::uint32_t>(v));
    n = std::max<std::uint32_t>(n, static_cast<std::uint32_t>(std::max(u, v) + 1));
  }
  return edges;
}

// --- Exact oracle. ---

/// |A ∩ B| of sorted lists: binary-search probes of the shorter list when the
/// lengths differ by 16x or more, a merge otherwise.
inline std::uint64_t intersect(std::span<const std::uint32_t> a,
                               std::span<const std::uint32_t> b) {
  if (a.size() > b.size()) std::swap(a, b);
  std::uint64_t c = 0;
  if (a.size() * 16 <= b.size()) {
    auto lo = b.begin();
    for (const std::uint32_t x : a) {
      lo = std::lower_bound(lo, b.end(), x);
      if (lo == b.end()) break;
      if (*lo == x) ++c;
    }
    return c;
  }
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++c;
      ++i;
      ++j;
    }
  }
  return c;
}

/// Out-neighbourhoods of the degree order (deg, id): every undirected edge
/// once, pointing from the lower-ranked to the higher-ranked endpoint.
inline Graph orient(const Graph& g) {
  const auto before = [&](std::uint32_t a, std::uint32_t b) {
    return g.deg(a) < g.deg(b) || (g.deg(a) == g.deg(b) && a < b);
  };
  Graph d;
  d.n = g.n;
  d.off.assign(std::size_t{g.n} + 1, 0);
  for (std::uint32_t v = 0; v < g.n; ++v) {
    std::uint64_t c = 0;
    for (const std::uint32_t u : g.nbrs(v)) c += before(v, u) ? 1 : 0;
    d.off[v + 1] = d.off[v] + c;
  }
  d.adj.resize(d.off[g.n]);
  for (std::uint32_t v = 0; v < g.n; ++v) {
    std::uint64_t p = d.off[v];
    for (const std::uint32_t u : g.nbrs(v)) {
      if (before(v, u)) d.adj[p++] = u;
    }
  }
  return d;
}

inline std::uint64_t triangles(const Graph& dag) {
  std::vector<std::uint64_t> part(oracle_threads(), 0);
  parallel_chunks(dag.n, oracle_threads(), [&](std::uint64_t b, std::uint64_t e, unsigned t) {
    for (auto v = static_cast<std::uint32_t>(b); v < e; ++v) {
      for (const std::uint32_t u : dag.nbrs(v)) part[t] += intersect(dag.nbrs(v), dag.nbrs(u));
    }
  });
  return std::accumulate(part.begin(), part.end(), std::uint64_t{0});
}

/// 4-cliques: for every v, the triangles of the subgraph induced by N+(v).
inline std::uint64_t four_cliques(const Graph& dag) {
  constexpr std::uint32_t kNone = ~0u;
  std::vector<std::uint64_t> part(oracle_threads(), 0);
  std::vector<std::vector<std::uint32_t>> local(oracle_threads(),
                                                std::vector<std::uint32_t>(dag.n, kNone));
  parallel_chunks(dag.n, oracle_threads(), [&](std::uint64_t b, std::uint64_t e, unsigned t) {
    std::vector<std::uint32_t>& loc = local[t];
    std::vector<std::uint64_t> loff;
    std::vector<std::uint32_t> ladj;
    std::vector<std::uint64_t> rows;
    for (auto v = static_cast<std::uint32_t>(b); v < e; ++v) {
      const auto nv = dag.nbrs(v);
      if (nv.size() < 3) continue;
      for (std::uint32_t i = 0; i < nv.size(); ++i) loc[nv[i]] = i;
      loff.assign(nv.size() + 1, 0);
      ladj.clear();
      for (std::size_t i = 0; i < nv.size(); ++i) {
        for (const std::uint32_t y : dag.nbrs(nv[i])) {
          if (loc[y] != kNone) ladj.push_back(loc[y]);
        }
        loff[i + 1] = ladj.size();
      }
      const auto lnbrs = [&](std::size_t i) {
        return std::span<const std::uint32_t>(ladj.data() + loff[i], ladj.data() + loff[i + 1]);
      };
      if (nv.size() < 32) {
        for (std::size_t i = 0; i < nv.size(); ++i) {
          for (const std::uint32_t j : lnbrs(i)) part[t] += intersect(lnbrs(i), lnbrs(j));
        }
      } else {
        // Dense enough for bit rows: |L(i) ∩ L(j)| as an AND + popcount.
        const std::size_t words = (nv.size() + 63) / 64;
        rows.assign(nv.size() * words, 0);
        for (std::size_t i = 0; i < nv.size(); ++i) {
          for (const std::uint32_t j : lnbrs(i)) rows[i * words + j / 64] |= std::uint64_t{1} << (j % 64);
        }
        for (std::size_t i = 0; i < nv.size(); ++i) {
          for (const std::uint32_t j : lnbrs(i)) {
            for (std::size_t w = 0; w < words; ++w) {
              part[t] += static_cast<std::uint64_t>(std::popcount(rows[i * words + w] & rows[j * words + w]));
            }
          }
        }
      }
      for (const std::uint32_t x : nv) loc[x] = kNone;
    }
  });
  return std::accumulate(part.begin(), part.end(), std::uint64_t{0});
}

/// Σ_v d(d-1)/2 — an integer, so exact in a double up to 2^53.
inline std::uint64_t wedges(const Graph& g) {
  std::uint64_t w = 0;
  for (std::uint32_t v = 0; v < g.n; ++v) w += g.deg(v) * (g.deg(v) - (g.deg(v) > 0 ? 1 : 0)) / 2;
  return w;
}

/// Global clustering coefficient 3·T/W.
inline double clustering_coefficient(std::uint64_t tri, std::uint64_t wedge_count) {
  return wedge_count == 0 ? 0.0
                          : 3.0 * static_cast<double>(tri) / static_cast<double>(wedge_count);
}

struct JarvisPatrick {
  std::uint64_t kept_edges = 0;
  std::uint64_t clusters = 0;
};

/// |N(u)∩N(v)| of every DAG arc from one triangle enumeration: each
/// triangle adds 1 to its three arcs, so the counts also sum to 3·T.
inline std::vector<std::uint32_t> arc_triangles(const Graph& dag) {
  std::vector<std::uint32_t> common(dag.adj.size(), 0);
  const auto bump = [&](std::uint64_t arc) {
    std::atomic_ref<std::uint32_t>(common[arc]).fetch_add(1, std::memory_order_relaxed);
  };
  parallel_chunks(dag.n, oracle_threads(), [&](std::uint64_t b, std::uint64_t e, unsigned) {
    for (auto v = static_cast<std::uint32_t>(b); v < e; ++v) {
      for (std::uint64_t a = dag.off[v]; a < dag.off[v + 1]; ++a) {
        const std::uint32_t u = dag.adj[a];
        std::uint64_t i = dag.off[v], j = dag.off[u];
        while (i < dag.off[v + 1] && j < dag.off[u + 1]) {
          if (dag.adj[i] < dag.adj[j]) {
            ++i;
          } else if (dag.adj[j] < dag.adj[i]) {
            ++j;
          } else {
            bump(a);
            bump(i++);
            bump(j++);
          }
        }
      }
    }
  });
  return common;
}

/// Jarvis–Patrick with Jaccard similarity: keep edge {u,v} iff
/// |N(u)∩N(v)| / |N(u)∪N(v)| > tau; clusters are the connected components of
/// (V, kept), singletons included. `common` is arc_triangles(dag).
inline JarvisPatrick jarvis_patrick(const Graph& g, const Graph& dag,
                                    const std::vector<std::uint32_t>& common, double tau) {
  std::vector<std::uint32_t> parent(g.n);
  std::iota(parent.begin(), parent.end(), 0u);
  const auto find = [&](std::uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  JarvisPatrick r;
  r.clusters = g.n;
  for (std::uint32_t v = 0; v < dag.n; ++v) {
    for (std::uint64_t a = dag.off[v]; a < dag.off[v + 1]; ++a) {
      const std::uint32_t u = dag.adj[a];
      const auto inter = static_cast<double>(common[a]);
      const double uni = static_cast<double>(g.deg(v)) + static_cast<double>(g.deg(u)) - inter;
      if (!((uni <= 0.0 ? 0.0 : inter / uni) > tau)) continue;
      ++r.kept_edges;
      const std::uint32_t x = find(v), y = find(u);
      if (x != y) {
        parent[x] = y;
        --r.clusters;
      }
    }
  }
  return r;
}

/// Exact values of one mining pass over `g`.
struct MiningTruth {
  std::uint64_t n = 0, m = 0, tc = 0, wedges = 0, four_cliques = 0;
  JarvisPatrick jp;
  [[nodiscard]] double cc() const { return clustering_coefficient(tc, wedges); }
};

inline constexpr double kClusterTau = 0.1;

inline MiningTruth mining_truth(const Graph& g) {
  MiningTruth t;
  t.n = g.n;
  t.m = g.m();
  const Graph dag = orient(g);
  const std::vector<std::uint32_t> common = arc_triangles(dag);
  t.tc = std::accumulate(common.begin(), common.end(), std::uint64_t{0}) / 3;
  t.four_cliques = four_cliques(dag);
  t.wedges = wedges(g);
  t.jp = jarvis_patrick(g, dag, common, kClusterTau);
  return t;
}

// --- Inputs written by `pgbench gen`. ---

/// Exact values of the input graph (truth.txt).
struct Truth {
  std::uint64_t n = 0, m = 0, tc = 0, wedges = 0, four_cliques = 0, jp_kept = 0,
                jp_clusters = 0;
};

inline Truth read_truth(const std::string& dir) {
  std::ifstream in(dir + "/truth.txt");
  if (!in) throw std::runtime_error("missing " + dir + "/truth.txt");
  Truth t;
  const std::pair<const char*, std::uint64_t*> keys[] = {
      {"n", &t.n},   {"m", &t.m}, {"tc", &t.tc}, {"wedges", &t.wedges}, {"four_cliques", &t.four_cliques},
      {"jp_kept", &t.jp_kept}, {"jp_clusters", &t.jp_clusters}};
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    for (const auto& [k, p] : keys) {
      if (line.compare(0, eq, k) == 0) *p = std::stoull(line.substr(eq + 1));
    }
  }
  return t;
}

/// One pool pair (pairs.txt) with its exact |N(u) ∩ N(v)|.
struct PairRow {
  std::uint32_t u = 0, v = 0;
  std::uint64_t exact = 0;
};

inline std::vector<PairRow> read_pairs(const std::string& dir,
                                       std::size_t limit = static_cast<std::size_t>(-1)) {
  std::ifstream in(dir + "/pairs.txt");
  std::vector<PairRow> pool;
  PairRow p;
  while (pool.size() < limit && in >> p.u >> p.v >> p.exact) pool.push_back(p);
  if (pool.empty()) throw std::runtime_error("empty pair pool in " + dir);
  return pool;
}

/// Churn edits touch only edges with both endpoints in W, and churn readers
/// query only vertices outside W, so every reader's exact answer is fixed
/// while the writer reseals.
inline bool in_w(std::uint32_t v) { return v % 4 == 0; }

// --- Sample statistics. ---

/// Linear-interpolated quantile of an unsorted sample (q in [0,1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace pb
