/**
 * @file
 * Program-image tests: binary round trips for the locally-dense matrix
 * and configuration tables, corrupt-input rejection, and end-to-end
 * execution from a reloaded image.
 */

#include <cstring>
#include <sstream>

#include <gtest/gtest.h>

#include "alrescha/program_image.hh"
#include "alrescha/sim/engine.hh"
#include "common/random.hh"
#include "kernels/spmv.hh"
#include "kernels/symgs.hh"
#include "sparse/generators.hh"

namespace alr {
namespace {

TEST(ProgramImage, MatrixSerializationRoundTrip)
{
    Rng rng(1);
    CsrMatrix a = gen::randomSpd(60, 5, rng);
    auto ld = LocallyDenseMatrix::encode(a, 8, LdLayout::SymGs);

    std::stringstream ss;
    ld.serialize(ss);
    LocallyDenseMatrix back = LocallyDenseMatrix::deserialize(ss);
    EXPECT_EQ(back.decode(), a);
    EXPECT_EQ(back.omega(), ld.omega());
    EXPECT_EQ(back.layout(), ld.layout());
    EXPECT_EQ(back.stream(), ld.stream());
    EXPECT_EQ(back.diagonal(), ld.diagonal());
}

TEST(ProgramImage, TableSerializationRoundTrip)
{
    Rng rng(2);
    CsrMatrix a = gen::banded(64, 6, 0.8, rng);
    auto ld = LocallyDenseMatrix::encode(a, 8, LdLayout::SymGs);
    ConfigTable t = ConfigTable::convert(KernelType::SymGS, ld, true,
                                         GsSweep::Backward);

    std::stringstream ss;
    t.serialize(ss);
    ConfigTable back = ConfigTable::deserialize(ss);
    EXPECT_EQ(back.kernel(), KernelType::SymGS);
    EXPECT_EQ(back.direction(), GsSweep::Backward);
    EXPECT_TRUE(back.reordered());
    EXPECT_EQ(back.entries().size(), t.entries().size());
    for (size_t i = 0; i < t.entries().size(); ++i) {
        EXPECT_EQ(back.entries()[i].dp, t.entries()[i].dp);
        EXPECT_EQ(back.entries()[i].blockId, t.entries()[i].blockId);
    }
}

TEST(ProgramImage, FullImageRoundTrip)
{
    Rng rng(3);
    CsrMatrix a = gen::banded(96, 8, 0.7, rng);
    ProgramImage image = buildPdeProgram(a, 8);
    ASSERT_EQ(image.tables.size(), 3u);

    std::stringstream ss;
    saveProgramImage(ss, image);
    ProgramImage back = loadProgramImage(ss);
    EXPECT_EQ(back.matrix.decode(), a);
    ASSERT_EQ(back.tables.size(), 3u);
    EXPECT_EQ(back.tables[0].direction(), GsSweep::Forward);
    EXPECT_EQ(back.tables[1].direction(), GsSweep::Backward);
    EXPECT_EQ(back.tables[2].kernel(), KernelType::SpMV);
}

TEST(ProgramImage, ReloadedImageExecutesIdentically)
{
    Rng rng(4);
    CsrMatrix a = gen::banded(72, 5, 0.8, rng);
    ProgramImage image = buildPdeProgram(a, 8);

    std::stringstream ss;
    saveProgramImage(ss, image);
    ProgramImage back = loadProgramImage(ss);

    Engine engine;
    engine.program(&back.matrix, &back.tables[0]);
    DenseVector b(72, 1.0), x(72, 0.0), xRef(72, 0.0);
    engine.runSymgsSweep(b, x);
    gaussSeidelSweep(a, b, xRef, GsSweep::Forward);
    for (Index i = 0; i < 72; ++i)
        EXPECT_NEAR(x[i], xRef[i], 1e-10);
}

TEST(ProgramImage, GraphProgramHoldsAllKernels)
{
    Rng rng(5);
    CsrMatrix g = gen::rmat(6, 4, rng);
    ProgramImage image = buildGraphProgram(g, 8);
    ASSERT_EQ(image.tables.size(), 4u);
    EXPECT_EQ(image.tables[0].kernel(), KernelType::BFS);
    // The image stores the transposed adjacency.
    EXPECT_EQ(image.matrix.decode(), g.transposed());
}

TEST(ProgramImage, RejectsBadMagic)
{
    std::stringstream ss;
    ss << "garbage bytes here";
    EXPECT_THROW(loadProgramImage(ss), std::runtime_error);
}

TEST(ProgramImage, RejectsTruncatedStream)
{
    Rng rng(6);
    CsrMatrix a = gen::banded(32, 3, 0.8, rng);
    ProgramImage image = buildSpmvProgram(a, 8);
    std::stringstream ss;
    saveProgramImage(ss, image);
    std::string data = ss.str();
    std::stringstream cut(data.substr(0, data.size() / 2));
    EXPECT_THROW(loadProgramImage(cut), std::runtime_error);
}

TEST(ProgramImage, RejectsBlockSizeOffItsLayout)
{
    // A SymGs diagonal block claiming a full omega^2 payload, still
    // inside the stream: its payload positions, and every stream term
    // charged for it, assume omega * (omega - 1).
    Rng rng(8);
    CsrMatrix a = gen::randomSpd(60, 5, rng);
    auto ld = LocallyDenseMatrix::encode(a, 8, LdLayout::SymGs);
    size_t k = 0;
    while (!ld.blocks()[k].isDiagonal())
        ++k;
    ASSERT_LT(k + 1, ld.blocks().size());
    std::stringstream ss;
    ld.serialize(ss);
    std::string bytes = ss.str();
    // Header: rows, cols, omega, block rows, nnz (u32), layout (u8),
    // block count (u64); block: row, column (u32), offset (u64), size
    // (u32).
    const size_t sizeAt = 5 * 4 + 1 + 8 + k * 20 + 4 + 4 + 8;
    const uint32_t full = 8 * 8;
    std::memcpy(bytes.data() + sizeAt, &full, sizeof(full));
    std::stringstream patched(bytes);
    EXPECT_THROW(LocallyDenseMatrix::deserialize(patched),
                 std::runtime_error);
}

TEST(ProgramImage, FileRoundTrip)
{
    Rng rng(7);
    CsrMatrix a = gen::banded(48, 4, 0.8, rng);
    ProgramImage image = buildSpmvProgram(a, 8);
    std::string path = ::testing::TempDir() + "/alr_prog_test.alr";
    saveProgramImageFile(path, image);
    ProgramImage back = loadProgramImageFile(path);
    EXPECT_EQ(back.matrix.decode(), a);
    std::remove(path.c_str());
}

} // namespace
} // namespace alr
