#include "sparse/mmio.hh"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"
#include "sparse/csr.hh"

namespace alr {

namespace {

[[noreturn]] void
malformed(const std::string &why)
{
    throw std::runtime_error("matrix market: " + why);
}

[[noreturn]] void
malformedAt(long lineno, const std::string &why)
{
    malformed("line " + std::to_string(lineno) + ": " + why);
}

/** True when @p s has a non-whitespace token left to consume. */
bool
hasTrailingToken(std::istringstream &s)
{
    std::string extra;
    return bool(s >> extra);
}

} // namespace

CooMatrix
readMatrixMarket(std::istream &in)
{
    std::string line;
    long lineno = 0;
    auto getLine = [&]() -> bool {
        if (!std::getline(in, line))
            return false;
        ++lineno;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        return true;
    };

    if (!getLine())
        malformed("empty stream");

    std::istringstream header(line);
    std::string banner, object, format, field, symmetry;
    header >> banner >> object >> format >> field >> symmetry;
    if (banner != "%%MatrixMarket")
        malformed("missing %%MatrixMarket banner");
    if (object != "matrix" || format != "coordinate")
        malformed("only coordinate matrices are supported");
    bool pattern = field == "pattern";
    if (field != "real" && field != "integer" && field != "pattern")
        malformed("unsupported field type '" + field + "'");
    bool symmetric = symmetry == "symmetric";
    bool skew = symmetry == "skew-symmetric";
    if (!symmetric && !skew && symmetry != "general")
        malformed("unsupported symmetry '" + symmetry + "'");

    // Skip comments and blank lines (both legal between the banner and
    // the size line).
    do {
        if (!getLine())
            malformed("missing size line");
    } while (line.empty() || line[0] == '%');

    // Dimensions past the largest Index would wrap in the narrowing
    // below and load a different shape.
    constexpr long kMaxDim = long(std::numeric_limits<Index>::max());
    std::istringstream size(line);
    long rows = 0, cols = 0, entries = 0;
    size >> rows >> cols >> entries;
    if (size.fail() || rows <= 0 || cols <= 0 || rows > kMaxDim ||
        cols > kMaxDim || entries < 0 || hasTrailingToken(size))
        malformedAt(lineno, "bad size line '" + line + "'");
    // A mirrored entry (c, r) must fit the shape too.
    if ((symmetric || skew) && rows != cols)
        malformedAt(lineno, "a " + symmetry + " matrix must be square");

    CooMatrix coo{Index(rows), Index(cols)};
    for (long i = 0; i < entries; ++i) {
        do {
            if (!getLine())
                malformedAt(lineno, "truncated entry list (" +
                            std::to_string(i) + " of " +
                            std::to_string(entries) + " entries read)");
        } while (line.empty());
        std::istringstream entry(line);
        long r = 0, c = 0;
        double v = 1.0;
        entry >> r >> c;
        if (!pattern)
            entry >> v;
        if (entry.fail() || r < 1 || c < 1 || r > rows || c > cols)
            malformedAt(lineno, "bad entry '" + line + "'");
        if (hasTrailingToken(entry))
            malformedAt(lineno,
                        "trailing tokens on entry '" + line + "'");
        coo.add(Index(r - 1), Index(c - 1), v);
        if ((symmetric || skew) && r != c)
            coo.add(Index(c - 1), Index(r - 1), skew ? -v : v);
    }
    coo.canonicalize();
    return coo;
}

CooMatrix
readMatrixMarketFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open matrix file '%s'", path.c_str());
    try {
        return readMatrixMarket(in);
    } catch (const std::exception &e) {
        fatal("%s: %s", path.c_str(), e.what());
    }
}

void
writeMatrixMarket(std::ostream &out, const CooMatrix &coo)
{
    CooMatrix canon = coo;
    canon.canonicalize();

    // Symmetric matrices are written in the Matrix Market symmetric
    // form (lower triangle only): a write->read round trip then
    // preserves nnz instead of doubling the off-diagonal entries.
    bool symmetric = canon.rows() == canon.cols() && canon.nnz() > 0 &&
                     CsrMatrix::fromCoo(canon).isSymmetric();

    out << "%%MatrixMarket matrix coordinate real "
        << (symmetric ? "symmetric" : "general") << "\n";
    out.precision(17);
    if (symmetric) {
        Index stored = 0;
        for (const Triplet &t : canon.triplets())
            stored += t.row >= t.col;
        out << canon.rows() << " " << canon.cols() << " " << stored
            << "\n";
        for (const Triplet &t : canon.triplets()) {
            if (t.row >= t.col)
                out << (t.row + 1) << " " << (t.col + 1) << " " << t.val
                    << "\n";
        }
        return;
    }
    out << canon.rows() << " " << canon.cols() << " " << canon.nnz()
        << "\n";
    for (const Triplet &t : canon.triplets())
        out << (t.row + 1) << " " << (t.col + 1) << " " << t.val << "\n";
}

void
writeMatrixMarketFile(const std::string &path, const CooMatrix &coo)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot create matrix file '%s'", path.c_str());
    writeMatrixMarket(out, coo);
}

} // namespace alr
