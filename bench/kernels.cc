// Per-kernel microbenchmarks for the columnar data layout (DESIGN.md §13):
//
//   * index_probe     — ColumnIndex equality probes (LookupEquals through
//                       the open-addressing table) on a join attribute.
//   * token_lookup    — InvertedIndex::Lookup over words drawn from the
//                       indexed text (symbol-id postings path).
//   * scan_equals     — Column::ScanEquals (SIMD-dispatched) vs the scalar
//                       reference, tid-for-tid identical output required
//                       (DESIGN.md §16).
//   * batch_probe     — ColumnIndex::LookupBatch (software-prefetch
//                       pipeline) vs sequential Lookup, result-equivalent.
//   * layout_probe    — the same equivalence, plus a column scan, on two
//                       columns built here so that both key-table layouts
//                       are gated at any dataset size: dense keys (direct
//                       entries) and the same keys times a large stride
//                       (the slot table).
//   * phrase_lookup   — multi-word InvertedIndex::Lookup (galloping
//                       postings intersection) over phrases drawn from the
//                       indexed titles; every phrase must hit.
//
// Each kernel gates on correctness (probe results vs a sequential scan,
// SIMD tids vs scalar tids, batched runs vs sequential on both index
// layouts, every known word and phrase found). ci.sh runs the smoke form:
//
//   PRECIS_BENCH_MOVIES=300 PRECIS_BENCH_SMOKE=1 ./kernels_bench
//
// Knobs: PRECIS_BENCH_MOVIES (dataset size), PRECIS_BENCH_OUT (report
// path, default BENCH_kernels.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "storage/columnar.h"
#include "storage/relation.h"
#include "text/inverted_index.h"
#include "text/tokenizer.h"

namespace precis {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Best-of-R wall time of `fn` in milliseconds (min over repetitions is
/// the standard noise filter for micro-kernels).
template <typename Fn>
double BestOf(size_t reps, Fn&& fn) {
  double best = 0.0;
  for (size_t r = 0; r < reps; ++r) {
    auto start = Clock::now();
    fn();
    double ms = MsSince(start);
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

struct KernelRow {
  std::string name;
  double ms = 0.0;       // best-of wall time for `ops` operations
  uint64_t ops = 0;      // operations in one timed pass
  double aux = 0.0;      // kernel-specific (speedup / hit count)
};

int Main() {
  const bool smoke = std::getenv("PRECIS_BENCH_SMOKE") != nullptr;
  const std::string out_path =
      bench::EnvString("PRECIS_BENCH_OUT", "BENCH_kernels.json");
  const size_t reps = smoke ? 3 : 7;

  const MoviesDataset& dataset = bench::SharedDataset();
  const Database& db = dataset.db();
  auto cast_rel = db.GetRelation("CAST");
  auto movie_rel = db.GetRelation("MOVIE");
  if (!cast_rel.ok() || !movie_rel.ok()) {
    std::fprintf(stderr, "bench dataset is missing CAST/MOVIE\n");
    return 1;
  }
  const Relation& cast = **cast_rel;
  const Relation& movie = **movie_rel;

  std::vector<KernelRow> rows;

  // --- index_probe: equality probes on CAST.mid (indexed, many tids per
  // key) with every MOVIE primary key as the probe set.
  {
    auto keys = movie.DistinctValues("mid");
    if (!keys.ok() || keys->empty()) {
      std::fprintf(stderr, "no MOVIE.mid keys\n");
      return 1;
    }
    uint64_t hits = 0;
    double ms = BestOf(reps, [&] {
      hits = 0;
      for (const Value& key : *keys) {
        auto tids = cast.LookupEquals("mid", key);
        if (tids.ok()) hits += tids->size();
      }
    });
    // Correctness: a sample of probes must agree with a sequential scan.
    const size_t attr_mid = 1;  // CAST{cid, mid, aid, role}
    for (size_t s = 0; s < keys->size(); s += keys->size() / 7 + 1) {
      const Value& key = (*keys)[s];
      auto probed = cast.LookupEquals("mid", key);
      std::vector<Tid> scanned;
      for (Tid t = 0; t < cast.num_tuples(); ++t) {
        if (cast.ColumnValue(t, attr_mid) == key) scanned.push_back(t);
      }
      if (!probed.ok() || *probed != scanned) {
        std::fprintf(stderr, "index_probe mismatch for key %s\n",
                     key.ToString().c_str());
        return 1;
      }
    }
    rows.push_back({"index_probe", ms, keys->size(), double(hits)});
  }

  // --- token_lookup: single-word postings lookups over words drawn from
  // the indexed movie titles.
  {
    auto index = InvertedIndex::Build(db);
    if (!index.ok()) {
      std::fprintf(stderr, "index build: %s\n",
                   index.status().ToString().c_str());
      return 1;
    }
    auto titles = movie.DistinctValues("title");
    if (!titles.ok()) return 1;
    std::vector<std::string> words;
    for (const Value& title : *titles) {
      for (std::string& w : TokenizeWords(title.AsString())) {
        words.push_back(std::move(w));
      }
      if (words.size() >= 4000) break;
    }
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    uint64_t found = 0;
    double ms = BestOf(reps, [&] {
      found = 0;
      for (const std::string& w : words) {
        if (!index->Lookup(w)->empty()) ++found;
      }
    });
    // Every word came out of an indexed title, so every lookup must hit.
    if (found != words.size()) {
      std::fprintf(stderr, "token_lookup: %llu/%zu words found\n",
                   static_cast<unsigned long long>(found), words.size());
      return 1;
    }
    rows.push_back({"token_lookup", ms, words.size(), double(found)});

    // --- phrase_lookup: two-word phrases from consecutive title words
    // exercise the multi-word path — galloping intersection of the
    // per-word postings, then the phrase-adjacency filter. Every phrase
    // was lifted from an indexed title, so every lookup must hit.
    std::vector<std::string> phrases;
    for (const Value& title : *titles) {
      std::vector<std::string> tw = TokenizeWords(title.AsString());
      for (size_t i = 0; i + 1 < tw.size(); ++i) {
        phrases.push_back(tw[i] + " " + tw[i + 1]);
      }
      if (phrases.size() >= 2000) break;
    }
    std::sort(phrases.begin(), phrases.end());
    phrases.erase(std::unique(phrases.begin(), phrases.end()),
                  phrases.end());
    if (!phrases.empty()) {
      uint64_t phrase_hits = 0;
      double phrase_ms = BestOf(reps, [&] {
        phrase_hits = 0;
        for (const std::string& p : phrases) {
          if (!index->Lookup(p)->empty()) ++phrase_hits;
        }
      });
      if (phrase_hits != phrases.size()) {
        std::fprintf(stderr, "phrase_lookup: %llu/%zu phrases found\n",
                     static_cast<unsigned long long>(phrase_hits),
                     phrases.size());
        return 1;
      }
      rows.push_back({"phrase_lookup", phrase_ms, phrases.size(),
                      double(phrase_hits)});
    }
  }

  // --- scan_equals: the unindexed equality scan, SIMD dispatch vs the
  // scalar reference on CAST.mid (int64 payloads). The two variants must
  // emit the exact same tid sequence for every probed key (the §16
  // equivalence gate); aux reports scalar_ms / simd_ms.
  {
    auto keys = movie.DistinctValues("mid");
    if (!keys.ok() || keys->empty()) return 1;
    const Column& col = cast.column(1);  // CAST{cid, mid, aid, role}
    std::vector<uint64_t> key_bits;
    for (const Value& key : *keys) {
      auto bits = Column::KeyBits(key, col.type());
      if (bits) key_bits.push_back(*bits);
    }
    std::vector<Tid> simd_tids;
    std::vector<Tid> scalar_tids;
    for (uint64_t bits : key_bits) {
      simd_tids.clear();
      scalar_tids.clear();
      col.ScanEquals(bits, &simd_tids);
      col.ScanEqualsScalar(bits, &scalar_tids);
      if (simd_tids != scalar_tids) {
        std::fprintf(stderr,
                     "GATE FAILED: scan_equals SIMD tids != scalar tids\n");
        return 1;
      }
    }
    std::vector<Tid> scratch;
    double simd_ms = BestOf(reps, [&] {
      for (uint64_t bits : key_bits) {
        scratch.clear();
        col.ScanEquals(bits, &scratch);
      }
    });
    double scalar_ms = BestOf(reps, [&] {
      for (uint64_t bits : key_bits) {
        scratch.clear();
        col.ScanEqualsScalar(bits, &scratch);
      }
    });
    rows.push_back({"scan_equals_scalar", scalar_ms, key_bits.size(), 0.0});
    rows.push_back({"scan_equals_simd", simd_ms, key_bits.size(),
                    scalar_ms / simd_ms});
  }

  // --- batch_probe: ColumnIndex::LookupBatch's prefetch pipeline vs n
  // sequential Lookup calls on a CAST.mid index built in bulk from its
  // column. Runs must be the same spans per key (same table, same probes):
  // equal data pointers and sizes.
  {
    auto keys = movie.DistinctValues("mid");
    if (!keys.ok() || keys->empty()) return 1;
    const size_t attr_mid = 1;
    auto index = ColumnIndex::Build(cast.column(attr_mid));
    if (!index.ok()) {
      std::fprintf(stderr, "batch_probe index build: %s\n",
                   index.status().ToString().c_str());
      return 1;
    }
    std::vector<std::span<const Tid>> batched(keys->size());
    std::vector<std::span<const Tid>> sequential(keys->size());
    double batch_ms = BestOf(reps, [&] {
      index->LookupBatch(keys->data(), keys->size(), batched.data());
    });
    double seq_ms = BestOf(reps, [&] {
      for (size_t i = 0; i < keys->size(); ++i) {
        sequential[i] = index->Lookup((*keys)[i]);
      }
    });
    for (size_t i = 0; i < keys->size(); ++i) {
      if (batched[i].data() != sequential[i].data() ||
          batched[i].size() != sequential[i].size()) {
        std::fprintf(stderr,
                     "GATE FAILED: batch_probe runs != sequential\n");
        return 1;
      }
    }
    rows.push_back({"index_probe_sequential", seq_ms, keys->size(), 0.0});
    rows.push_back(
        {"index_probe_batched", batch_ms, keys->size(), seq_ms / batch_ms});
  }

  // --- layout_probe: CAST.mid at smoke size is hashed (the paper's five
  // film ids sit 1,000 below the synthetic ones), so the gates above may
  // see one layout only. Two columns of CAST's row count built here cover
  // both: keys 0..d-1 (direct entries) and the same keys times 1,000,003
  // (the slot table). On each, LookupBatch must return sequential
  // Lookup's spans, and those the tids a column scan finds, for every key
  // and the absent neighbours; aux reports the tids found.
  {
    const size_t n = cast.num_tuples();
    const int64_t distinct = std::max<int64_t>(1, static_cast<int64_t>(n / 3));
    for (const int64_t stride : {int64_t{1}, int64_t{1000003}}) {
      const bool dense = stride == 1;
      Column col(DataType::kInt64);
      col.Reserve(n);
      for (size_t r = 0; r < n; ++r) {
        col.Append(Value(static_cast<int64_t>(r * 7919) % distinct * stride));
      }
      auto index = ColumnIndex::Build(col);
      if (!index.ok() || index->direct() != dense) {
        std::fprintf(stderr,
                     "GATE FAILED: layout_probe %s keys did not build the "
                     "%s layout\n",
                     dense ? "dense" : "strided", dense ? "direct" : "hashed");
        return 1;
      }
      std::vector<Value> keys;
      for (int64_t k = -1; k <= distinct; ++k) {
        keys.push_back(Value(k * stride));
      }
      std::vector<std::span<const Tid>> batched(keys.size());
      double ms = BestOf(reps, [&] {
        index->LookupBatch(keys.data(), keys.size(), batched.data());
      });
      uint64_t found = 0;
      std::vector<Tid> scanned;
      for (size_t i = 0; i < keys.size(); ++i) {
        const std::span<const Tid> sequential = index->Lookup(keys[i]);
        scanned.clear();
        col.ScanEquals(*Column::KeyBits(keys[i], DataType::kInt64), &scanned);
        if (batched[i].data() != sequential.data() ||
            batched[i].size() != sequential.size() ||
            !std::equal(sequential.begin(), sequential.end(),
                        scanned.begin(), scanned.end())) {
          std::fprintf(stderr,
                       "GATE FAILED: layout_probe %s key %s: batched, "
                       "sequential and scan disagree\n",
                       dense ? "direct" : "hashed", keys[i].ToString().c_str());
          return 1;
        }
        found += scanned.size();
      }
      if (found != n) {
        std::fprintf(stderr, "GATE FAILED: layout_probe %s found %llu of %zu "
                             "rows\n",
                     dense ? "direct" : "hashed",
                     static_cast<unsigned long long>(found), n);
        return 1;
      }
      rows.push_back({dense ? "layout_probe_direct" : "layout_probe_hashed", ms,
                      keys.size(), double(found)});
    }
  }

  std::printf("%-24s %10s %10s %14s %10s\n", "kernel", "ms", "ops",
              "ns_per_op", "aux");
  for (const KernelRow& r : rows) {
    std::printf("%-24s %10.3f %10llu %14.1f %10.2f\n", r.name.c_str(), r.ms,
                static_cast<unsigned long long>(r.ops),
                r.ops == 0 ? 0.0 : r.ms * 1e6 / double(r.ops), r.aux);
  }

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"kernels\",\n  \"movies\": "
      << bench::BenchMovieCount() << ",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n  \"kernels\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"ms\": " << r.ms
        << ", \"ops\": " << r.ops << ", \"ns_per_op\": "
        << (r.ops == 0 ? 0.0 : r.ms * 1e6 / double(r.ops))
        << ", \"aux\": " << r.aux << "}" << (i + 1 < rows.size() ? "," : "")
        << "\n";
  }
  out << "  ]\n}\n";
  out.close();

  std::printf("-> %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace precis

int main() { return precis::Main(); }
