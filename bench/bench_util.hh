/**
 * @file
 * Shared helpers for the figure-reproduction harnesses: markdown table
 * printing, geometric means, the BENCH_*.json document helpers (built
 * as json::Value, written through json::Writer), and the standard
 * Alrescha measurement wrappers used by several benches.
 */

#ifndef ALR_BENCH_BENCH_UTIL_HH
#define ALR_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "alrescha/accelerator.hh"
#include "common/json.hh"
#include "common/version.hh"
#include "datasets/suites.hh"

namespace alr::bench {

/** Simple left-aligned markdown-style table printer. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : _headers(std::move(headers))
    {
    }

    void addRow(std::vector<std::string> cells)
    {
        _rows.push_back(std::move(cells));
    }

    void
    print() const
    {
        auto line = [&](const std::vector<std::string> &cells) {
            std::printf("|");
            for (size_t i = 0; i < _headers.size(); ++i) {
                const std::string &c = i < cells.size() ? cells[i] : "";
                std::printf(" %-*s |", int(width(i)), c.c_str());
            }
            std::printf("\n");
        };
        line(_headers);
        std::printf("|");
        for (size_t i = 0; i < _headers.size(); ++i)
            std::printf("%s|", std::string(width(i) + 2, '-').c_str());
        std::printf("\n");
        for (const auto &row : _rows)
            line(row);
    }

  private:
    size_t
    width(size_t col) const
    {
        size_t w = _headers[col].size();
        for (const auto &row : _rows) {
            if (col < row.size())
                w = std::max(w, row[col].size());
        }
        return w;
    }

    std::vector<std::string> _headers;
    std::vector<std::vector<std::string>> _rows;
};

inline std::string
fmt(double v, int precision = 2)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

inline std::string
fmtSci(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3g", v);
    return buf;
}

inline double
geoMean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / double(xs.size()));
}

/** Milliseconds elapsed since @p start (host wall clock). */
inline double
wallMsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** The root object of a BENCH_*.json artifact.  It is stamped with
 *  the repo-wide schema_version first, so no bench can forget it. */
inline json::Value
benchDocument(const char *bench)
{
    json::Value root = json::Value::object();
    root.set("schema_version", version::kJsonSchemaVersion)
        .set("bench", bench);
    return root;
}

/** Write @p root to @p path (with trailing newline); prints the path so
 *  bench logs show where the machine-readable copy landed. */
inline bool
writeJsonFile(const std::string &path, const json::Value &root)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return false;
    }
    json::dump(out, root);
    out << "\n";
    std::printf("wrote %s\n", path.c_str());
    return bool(out);
}

/**
 * Modeled-counter sub-object for BENCH_*.json rows: deterministic
 * functions of the simulated configuration, so alr_diff's `stats` rule
 * gates every field exactly, like cycles and bytes_streamed.
 */
inline json::Value
modeledStats(const Accelerator &acc)
{
    const Engine &e = acc.engine();
    json::Value s = json::Value::object();
    s.set("alu_ops", e.fcu().aluOps())
        .set("reduce_ops", e.fcu().reduceOps())
        .set("cache_hits", e.rcu().cache().hits())
        .set("cache_misses", e.rcu().cache().misses())
        .set("reconfigurations", e.rcu().reconfigurations())
        .set("reconfig_stall_cycles", e.rcu().reconfigStallCycles())
        .set("reconfig_hidden_frac", e.rcu().reconfigHiddenFraction())
        .set("seq_flops", e.seqFlops())
        .set("par_flops", e.parFlops());
    return s;
}

/** Alrescha seconds for one PCG iteration (symmetric sweep + SpMV). */
inline double
alreschaPcgIterationSeconds(const CsrMatrix &a, Accelerator &acc)
{
    acc.loadPde(a);
    acc.resetStats();
    DenseVector b(a.rows(), 1.0);
    DenseVector x(a.rows(), 0.0);
    acc.symgsSweep(b, x, GsSweep::Symmetric);
    acc.spmv(x);
    return acc.engine().seconds();
}

/** Alrescha seconds for one SpMV. */
inline double
alreschaSpmvSeconds(const CsrMatrix &a, Accelerator &acc)
{
    acc.loadSpmvOnly(a);
    acc.resetStats();
    DenseVector x(a.cols(), 1.0);
    acc.spmv(x);
    return acc.engine().seconds();
}

} // namespace alr::bench

#endif // ALR_BENCH_BENCH_UTIL_HH
