/**
 * @file
 * Matrix Market reader/writer tests, including symmetric/pattern
 * variants, malformed-input rejection and a seeded mutation loop.
 */

#include <algorithm>
#include <sstream>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "sparse/coo.hh"
#include "sparse/csr.hh"
#include "sparse/generators.hh"
#include "sparse/mmio.hh"

namespace alr {
namespace {

TEST(Mmio, WriteReadRoundTrip)
{
    Rng rng(1);
    CsrMatrix a = gen::randomSparse(20, 14, 3, rng);
    CooMatrix coo = a.toCoo();

    std::stringstream ss;
    writeMatrixMarket(ss, coo);
    CooMatrix back = readMatrixMarket(ss);
    EXPECT_EQ(back, coo);
}

TEST(Mmio, ReadsGeneralRealFile)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real general\n"
       << "% a comment line\n"
       << "3 3 2\n"
       << "1 2 1.5\n"
       << "3 1 -2.0\n";
    CooMatrix coo = readMatrixMarket(ss);
    EXPECT_EQ(coo.rows(), 3u);
    EXPECT_EQ(coo.nnz(), 2u);
    EXPECT_DOUBLE_EQ(CsrMatrix::fromCoo(coo).at(0, 1), 1.5);
    EXPECT_DOUBLE_EQ(CsrMatrix::fromCoo(coo).at(2, 0), -2.0);
}

TEST(Mmio, ExpandsSymmetricFiles)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real symmetric\n"
       << "3 3 2\n"
       << "2 1 4.0\n"
       << "3 3 7.0\n";
    CooMatrix coo = readMatrixMarket(ss);
    CsrMatrix a = CsrMatrix::fromCoo(coo);
    EXPECT_DOUBLE_EQ(a.at(1, 0), 4.0);
    EXPECT_DOUBLE_EQ(a.at(0, 1), 4.0);
    EXPECT_DOUBLE_EQ(a.at(2, 2), 7.0);
    EXPECT_EQ(a.nnz(), 3u);
}

TEST(Mmio, ExpandsSkewSymmetric)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real skew-symmetric\n"
       << "2 2 1\n"
       << "2 1 3.0\n";
    CsrMatrix a = CsrMatrix::fromCoo(readMatrixMarket(ss));
    EXPECT_DOUBLE_EQ(a.at(1, 0), 3.0);
    EXPECT_DOUBLE_EQ(a.at(0, 1), -3.0);
}

TEST(Mmio, PatternFilesGetUnitValues)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate pattern general\n"
       << "2 2 2\n"
       << "1 1\n"
       << "2 2\n";
    CsrMatrix a = CsrMatrix::fromCoo(readMatrixMarket(ss));
    EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(a.at(1, 1), 1.0);
}

TEST(Mmio, RejectsMissingBanner)
{
    std::stringstream ss;
    ss << "not a matrix\n1 1 0\n";
    EXPECT_THROW(readMatrixMarket(ss), std::runtime_error);
}

TEST(Mmio, RejectsArrayFormat)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n";
    EXPECT_THROW(readMatrixMarket(ss), std::runtime_error);
}

TEST(Mmio, RejectsOutOfRangeIndices)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real general\n"
       << "2 2 1\n"
       << "3 1 1.0\n";
    EXPECT_THROW(readMatrixMarket(ss), std::runtime_error);
}

TEST(Mmio, RejectsDimensionsPastTheIndexRange)
{
    // Narrowed to a 32-bit Index, 2^32 + 1 would load as 1 and 5e9 as
    // 705,032,704: another shape, or entries that no longer fit it.
    for (const char *size : {"4294967297 4294967297 1",
                             "5000000000 5000000000 1", "1 4294967296 1"}) {
        std::stringstream ss;
        ss << "%%MatrixMarket matrix coordinate real general\n"
           << size << "\n"
           << "1 1 1.0\n";
        EXPECT_THROW(readMatrixMarket(ss), std::runtime_error) << size;
    }
    // The largest Index is still a dimension.
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real general\n"
       << "4294967295 1 1\n"
       << "4294967295 1 2.0\n";
    CooMatrix coo = readMatrixMarket(ss);
    EXPECT_EQ(coo.rows(), 4294967295u);
    ASSERT_EQ(coo.nnz(), 1u);
    EXPECT_EQ(coo.triplets()[0].row, 4294967294u);
}

TEST(Mmio, RejectsRectangularSymmetricFiles)
{
    // Entry (3, 1) fits a 3 x 2 shape, but its mirror (1, 3) does not.
    for (const char *symmetry : {"symmetric", "skew-symmetric"}) {
        std::stringstream ss;
        ss << "%%MatrixMarket matrix coordinate real " << symmetry << "\n"
           << "3 2 1\n"
           << "3 1 1.0\n";
        EXPECT_THROW(readMatrixMarket(ss), std::runtime_error) << symmetry;
    }
}

TEST(Mmio, RejectsTruncatedEntryList)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real general\n"
       << "2 2 2\n"
       << "1 1 1.0\n";
    EXPECT_THROW(readMatrixMarket(ss), std::runtime_error);
}

TEST(Mmio, SymmetricMatrixWritesSymmetricForm)
{
    Rng rng(3);
    CsrMatrix a = gen::randomSpd(24, 4, rng);
    ASSERT_TRUE(a.isSymmetric());

    std::stringstream ss;
    writeMatrixMarket(ss, a.toCoo());
    std::string text = ss.str();
    EXPECT_NE(text.find("coordinate real symmetric"), std::string::npos);

    // Stored entries are the lower triangle only: no doubling.
    CooMatrix acoo = a.toCoo();
    Index lower = 0;
    for (const Triplet &t : acoo.triplets())
        lower += t.row >= t.col;
    std::istringstream count(text);
    std::string line;
    std::getline(count, line); // banner
    std::getline(count, line); // size line
    long rows = 0, cols = 0, stored = 0;
    std::istringstream(line) >> rows >> cols >> stored;
    EXPECT_EQ(Index(stored), lower);

    // Round trip reproduces the matrix exactly (nnz preserved).
    std::istringstream back(text);
    CooMatrix coo = readMatrixMarket(back);
    EXPECT_EQ(CsrMatrix::fromCoo(coo), a);

    // A second write of the round-tripped matrix is byte-identical:
    // the write->read->write cycle is stable.
    std::stringstream again;
    writeMatrixMarket(again, coo);
    EXPECT_EQ(again.str(), text);
}

TEST(Mmio, NonSymmetricMatrixStaysGeneral)
{
    Rng rng(4);
    CsrMatrix a = gen::randomSparse(12, 12, 3, rng);
    ASSERT_FALSE(a.isSymmetric());
    std::stringstream ss;
    writeMatrixMarket(ss, a.toCoo());
    EXPECT_NE(ss.str().find("coordinate real general"),
              std::string::npos);
    std::istringstream back(ss.str());
    EXPECT_EQ(CsrMatrix::fromCoo(readMatrixMarket(back)), a);
}

TEST(Mmio, SkipsBlankLinesBeforeSizeLine)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real general\n"
       << "% comment\n"
       << "\n"
       << "2 2 1\n"
       << "1 2 5.0\n";
    CooMatrix coo = readMatrixMarket(ss);
    EXPECT_EQ(coo.nnz(), 1u);
    EXPECT_DOUBLE_EQ(CsrMatrix::fromCoo(coo).at(0, 1), 5.0);
}

TEST(Mmio, RejectsTrailingTokensOnEntryLines)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real general\n"
       << "2 2 1\n"
       << "1 2 3.0 junk\n";
    EXPECT_THROW(readMatrixMarket(ss), std::runtime_error);
}

TEST(Mmio, EntryErrorsReportLineNumber)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real general\n"
       << "% comment\n"
       << "2 2 2\n"
       << "1 1 1.0\n"
       << "9 9 2.0\n";
    try {
        readMatrixMarket(ss);
        FAIL() << "expected malformed-entry rejection";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 5"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Mmio, RejectsTrailingTokensOnSizeLine)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real general\n"
       << "2 2 1 extra\n"
       << "1 1 1.0\n";
    EXPECT_THROW(readMatrixMarket(ss), std::runtime_error);
}

TEST(Mmio, FileRoundTrip)
{
    Rng rng(2);
    CsrMatrix a = gen::randomSpd(25, 4, rng);
    std::string path = ::testing::TempDir() + "/alr_mmio_test.mtx";
    writeMatrixMarketFile(path, a.toCoo());
    CooMatrix back = readMatrixMarketFile(path);
    EXPECT_EQ(CsrMatrix::fromCoo(back), a);
    std::remove(path.c_str());
}

/**
 * Seeded mutations of three valid files -- general, symmetric and
 * pattern: truncation, byte flips, splices, an edited number anywhere,
 * and an edited field of the size line, whose values every later check
 * reads.  Every case must end in a matrix whose triplets all lie
 * inside its shape or in the reader's error, never in an abort.
 */
TEST(Mmio, SeededMutationsEndInAMatrixOrAnError)
{
    Rng gen(11);
    std::stringstream general, symmetric;
    writeMatrixMarket(general, gen::randomSparse(12, 9, 3, gen).toCoo());
    writeMatrixMarket(symmetric, gen::randomSpd(10, 3, gen).toCoo());
    ASSERT_NE(symmetric.str().find(" symmetric\n"), std::string::npos);
    const std::string inputs[] = {
        general.str(), symmetric.str(),
        "%%MatrixMarket matrix coordinate pattern general\n"
        "% a comment line\n"
        "6 5 7\n1 1\n2 3\n6 5\n3 2\n4 4\n5 1\n6 2\n"};
    const char *const kNumbers[] = {
        "0",          "-1",         "-12",        "1",
        "3",          "2147483648", "4294967295", "4294967296",
        "4294967297", "5000000000", "1e999",      "0.5"};
    // [begin, end) of the first number at or after pos.
    auto numberAt = [](const std::string &text, size_t pos) {
        const size_t b = std::min(text.find_first_of("-0123456789", pos),
                                  text.size());
        const size_t e = text.find_first_not_of("-+.eE0123456789", b);
        return std::make_pair(b, std::min(e, text.size()));
    };
    constexpr int kCases = 2000;
    Rng rng(2025);
    int matrices = 0, errors = 0;
    for (int c = 0; c < kCases; ++c) {
        std::string text = inputs[rng.nextRange(3)];
        const size_t pos = rng.nextRange(text.size());
        const char *number = kNumbers[rng.nextRange(12)];
        switch (rng.nextRange(5)) {
          case 0: // truncate
              text.resize(pos);
              break;
          case 1: // flip the bits of one byte
              text[pos] = char(text[pos] ^ (1 + rng.nextRange(255)));
              break;
          case 2: { // splice a span of the text over another place
              const size_t from = rng.nextRange(text.size());
              const size_t len = 1 + rng.nextRange(32);
              text.replace(pos, rng.nextRange(32), text.substr(from, len));
              break;
          }
          case 3: { // edit the first number at or after pos
              const auto [b, e] = numberAt(text, pos);
              text.replace(b, e - b, number);
              break;
          }
          default: { // edit rows, columns or entries of the size line
              size_t line = text.find('\n') + 1;
              while (text[line] == '%')
                  line = text.find('\n', line) + 1;
              auto [b, e] = numberAt(text, line);
              for (uint64_t field = rng.nextRange(3); field > 0; --field)
                  std::tie(b, e) = numberAt(text, e);
              text.replace(b, e - b, number);
          }
        }
        std::istringstream in(text);
        try {
            const CooMatrix coo = readMatrixMarket(in);
            ++matrices;
            for (const Triplet &t : coo.triplets())
                EXPECT_TRUE(t.row < coo.rows() && t.col < coo.cols())
                    << "case " << c << ":\n" << text;
        } catch (const std::runtime_error &e) {
            ++errors;
            EXPECT_EQ(std::string(e.what()).rfind("matrix market: ", 0), 0u)
                << e.what();
        }
    }
    // Both outcomes are reached, so the loop is not all rejects.
    EXPECT_GT(matrices, kCases / 10);
    EXPECT_GT(errors, kCases / 4);
}

} // namespace
} // namespace alr
