/**
 * @file
 * Locally-dense format tests: encode/decode round trips, block and value
 * ordering per §4.5, diagonal separation, and the BCSR metadata parity
 * claim.
 */

#include <gtest/gtest.h>

#include "alrescha/format.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "sparse/bcsr.hh"
#include "sparse/coo.hh"
#include "sparse/dense.hh"
#include "sparse/generators.hh"

namespace alr {
namespace {

CsrMatrix
smallSpd(Index n, uint64_t seed)
{
    Rng rng(seed);
    return gen::randomSpd(n, 4, rng);
}

TEST(LdFormat, PlainRoundTrip)
{
    Rng rng(1);
    CsrMatrix a = gen::randomSparse(30, 22, 4, rng);
    auto ld = LocallyDenseMatrix::encode(a, 8, LdLayout::Plain);
    EXPECT_EQ(ld.decode(), a);
    EXPECT_EQ(ld.scalarNnz(), a.nnz());
}

TEST(LdFormat, SymGsRoundTrip)
{
    CsrMatrix a = smallSpd(29, 2);
    auto ld = LocallyDenseMatrix::encode(a, 8, LdLayout::SymGs);
    EXPECT_EQ(ld.decode(), a);
}

class LdRoundTrip
    : public ::testing::TestWithParam<std::tuple<Index, uint64_t, int>>
{
};

TEST_P(LdRoundTrip, EncodeDecodeIdentity)
{
    auto [omega, seed, layout_int] = GetParam();
    LdLayout layout = layout_int ? LdLayout::SymGs : LdLayout::Plain;
    CsrMatrix a = smallSpd(41, seed);
    auto ld = LocallyDenseMatrix::encode(a, omega, layout);
    EXPECT_EQ(ld.decode(), a)
        << "omega=" << omega << " layout=" << layout_int;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LdRoundTrip,
    ::testing::Combine(::testing::Values<Index>(2, 3, 4, 8, 16),
                       ::testing::Values<uint64_t>(5, 6, 7),
                       ::testing::Values(0, 1)));

TEST(LdFormat, BlockOrderPutsDiagonalLast)
{
    CsrMatrix a = smallSpd(24, 3);
    auto ld = LocallyDenseMatrix::encode(a, 8, LdLayout::SymGs);
    Index prevRow = 0;
    bool sawDiag = false;
    for (const LdBlockInfo &blk : ld.blocks()) {
        if (blk.blockRow != prevRow) {
            EXPECT_TRUE(sawDiag) << "block row " << prevRow
                                 << " must end with its diagonal";
            prevRow = blk.blockRow;
            sawDiag = false;
        }
        if (blk.isDiagonal()) {
            sawDiag = true;
        } else {
            EXPECT_FALSE(sawDiag)
                << "off-diagonal after diagonal in row " << blk.blockRow;
        }
    }
    EXPECT_TRUE(sawDiag);
}

TEST(LdFormat, UpperBlockValuesAreReversedWithinRows)
{
    // Build a matrix with one known upper-triangle block.
    CooMatrix coo(8, 8);
    for (Index i = 0; i < 8; ++i)
        coo.add(i, i, 10.0);
    // Block (0, 1) with omega=4: values at rows 0..3, cols 4..7.
    coo.add(0, 4, 1.0);
    coo.add(0, 5, 2.0);
    coo.add(0, 6, 3.0);
    coo.add(0, 7, 4.0);
    CsrMatrix a = CsrMatrix::fromCoo(coo);
    auto ld = LocallyDenseMatrix::encode(a, 4, LdLayout::SymGs);

    const LdBlockInfo *upper = nullptr;
    for (const auto &blk : ld.blocks()) {
        if (blk.blockRow == 0 && blk.blockCol == 1)
            upper = &blk;
    }
    ASSERT_NE(upper, nullptr);
    // Stream order of row 0 must be reversed: 4, 3, 2, 1.
    const auto &s = ld.stream();
    EXPECT_DOUBLE_EQ(s[upper->offset + 0], 4.0);
    EXPECT_DOUBLE_EQ(s[upper->offset + 1], 3.0);
    EXPECT_DOUBLE_EQ(s[upper->offset + 2], 2.0);
    EXPECT_DOUBLE_EQ(s[upper->offset + 3], 1.0);
}

TEST(LdFormat, LowerBlockValuesKeepOriginalOrder)
{
    CooMatrix coo(8, 8);
    for (Index i = 0; i < 8; ++i)
        coo.add(i, i, 10.0);
    coo.add(4, 0, 1.0);
    coo.add(4, 1, 2.0);
    coo.add(4, 2, 3.0);
    coo.add(4, 3, 4.0);
    CsrMatrix a = CsrMatrix::fromCoo(coo);
    auto ld = LocallyDenseMatrix::encode(a, 4, LdLayout::SymGs);

    const LdBlockInfo *lower = nullptr;
    for (const auto &blk : ld.blocks()) {
        if (blk.blockRow == 1 && blk.blockCol == 0)
            lower = &blk;
    }
    ASSERT_NE(lower, nullptr);
    EXPECT_DOUBLE_EQ(ld.stream()[lower->offset + 0], 1.0);
    EXPECT_DOUBLE_EQ(ld.stream()[lower->offset + 1], 2.0);
    EXPECT_DOUBLE_EQ(ld.stream()[lower->offset + 2], 3.0);
    EXPECT_DOUBLE_EQ(ld.stream()[lower->offset + 3], 4.0);
}

TEST(LdFormat, DiagonalIsSeparatedAndExcludedFromStream)
{
    CsrMatrix a = smallSpd(16, 4);
    auto ld = LocallyDenseMatrix::encode(a, 4, LdLayout::SymGs);
    ASSERT_EQ(ld.diagonal().size(), 16u);
    for (Index r = 0; r < 16; ++r)
        EXPECT_DOUBLE_EQ(ld.diagonal()[r], a.at(r, r));
    // Diagonal blocks store omega*(omega-1) values.
    for (const auto &blk : ld.blocks()) {
        if (blk.isDiagonal())
            EXPECT_EQ(blk.size, 4u * 3u);
        else
            EXPECT_EQ(blk.size, 16u);
    }
}

TEST(LdFormat, DiagonalBlockRowsStoredRightToLeft)
{
    // Diagonal block with known off-diagonal values in row 2.
    CooMatrix coo(4, 4);
    for (Index i = 0; i < 4; ++i)
        coo.add(i, i, 10.0);
    coo.add(2, 0, 1.0);
    coo.add(2, 1, 2.0);
    coo.add(2, 3, 3.0);
    CsrMatrix a = CsrMatrix::fromCoo(coo);
    auto ld = LocallyDenseMatrix::encode(a, 4, LdLayout::SymGs);
    ASSERT_EQ(ld.blocks().size(), 1u);
    const LdBlockInfo &blk = ld.blocks()[0];
    // Row 2 (length 3, r2l skipping diagonal): cols 3, 1, 0.
    size_t base = blk.offset + 2 * 3;
    EXPECT_DOUBLE_EQ(ld.stream()[base + 0], 3.0);
    EXPECT_DOUBLE_EQ(ld.stream()[base + 1], 2.0);
    EXPECT_DOUBLE_EQ(ld.stream()[base + 2], 1.0);
}

TEST(LdFormat, MetadataMatchesBcsrBudget)
{
    CsrMatrix a = smallSpd(64, 8);
    auto ld = LocallyDenseMatrix::encode(a, 8, LdLayout::Plain);
    BcsrMatrix b = BcsrMatrix::fromCsr(a, 8);
    // Same counting scheme: one pointer per block row + one column index
    // per stored block (paper: "the same meta-data overhead").
    EXPECT_EQ(ld.metadataBytes(), b.metadataBytes());
    EXPECT_EQ(Index(ld.blocks().size()), b.numBlocks());
}

TEST(LdFormat, BlockDensityBounds)
{
    CsrMatrix dense8 = CsrMatrix::fromDense(DenseMatrix(8, 8, 1.0));
    auto ld = LocallyDenseMatrix::encode(dense8, 8, LdLayout::Plain);
    EXPECT_DOUBLE_EQ(ld.blockDensity(), 1.0);

    CsrMatrix a = gen::tridiagonal(64);
    auto ld2 = LocallyDenseMatrix::encode(a, 8, LdLayout::Plain);
    EXPECT_GT(ld2.blockDensity(), 0.0);
    EXPECT_LT(ld2.blockDensity(), 0.5);
}

TEST(LdFormat, NonMultipleDimensionsArePadded)
{
    CsrMatrix a = smallSpd(13, 9);
    auto ld = LocallyDenseMatrix::encode(a, 8, LdLayout::SymGs);
    EXPECT_EQ(ld.blockRows(), 2u);
    EXPECT_EQ(ld.decode(), a);
}

TEST(LdFormat, StreamBytesAccountsDenseBlocks)
{
    CsrMatrix a = gen::tridiagonal(32);
    auto ld = LocallyDenseMatrix::encode(a, 8, LdLayout::Plain);
    size_t expected = 0;
    for (const auto &blk : ld.blocks())
        expected += blk.size * sizeof(Value);
    EXPECT_EQ(ld.streamBytes(), expected);
}

/**
 * The encoder's output pinned to digests taken from an earlier encoder
 * (one that built each block row into its own buffer and merged them):
 * any rewrite of the encode must keep every stream byte, block
 * descriptor and diagonal entry, at any pool size.
 */
TEST(LdFormat, EncodeOutputIsPinned)
{
    struct Case
    {
        const char *name;
        CsrMatrix a;
        Index omega;
        LdLayout layout;
        uint64_t hash;
        size_t streamBytes;
    };
    Rng rmatRng(11), rectRng(12), spdRng(13);
    const Case cases[] = {
        {"stencil3d:12 SymGs w8", gen::stencil3d(12, 12, 12, 27), 8,
         LdLayout::SymGs, 0x5fda50eab5fad751ull, 1448448},
        {"rmat:10 Plain w4", gen::rmat(10, 8, rmatRng), 4, LdLayout::Plain,
         0x0edbbc31f6508579ull, 555136},
        {"randomSpd(97) SymGs w6", gen::randomSpd(97, 5, spdRng), 6,
         LdLayout::SymGs, 0x0dcc75a9e8ae3ab0ull, 72048},
        {"randomSparse(70x45) Plain w8", gen::randomSparse(70, 45, 6, rectRng),
         8, LdLayout::Plain, 0x74a1edf5a8edefa7ull, 27648},
    };
    for (const Case &c : cases) {
        for (int threads : {1, 3}) {
            ThreadPool pool(threads);
            auto ld = LocallyDenseMatrix::encode(c.a, c.omega, c.layout, &pool);
            EXPECT_EQ(ld.contentHash(), c.hash) << c.name << ", " << threads;
            EXPECT_EQ(ld.streamBytes(), c.streamBytes) << c.name;
            EXPECT_EQ(ld.decode(), c.a) << c.name;
        }
    }
}

} // namespace
} // namespace alr
