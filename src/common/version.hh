/**
 * @file
 * Build provenance, stamped at configure time (src/common/version.cc.in
 * -> the generated version.cc in the build tree).  Exposed through
 * alr_sim --version and embedded in --json / --profile artifacts so
 * results are comparable across builds.
 */

#ifndef ALR_COMMON_VERSION_HH
#define ALR_COMMON_VERSION_HH

namespace alr::version {

/**
 * Version of every JSON artifact this repo emits (stats dumps,
 * profiles, timelines, metrics snapshots, sim reports, BENCH rows,
 * diff documents), stamped as a top-level "schema_version" member.
 * Cross-run tooling (tools/alr_diff) refuses artifacts whose versions
 * disagree instead of misreading them, and alr_diff check fails any
 * artifact stamped with another.  Bump on any incompatible schema
 * change.
 */
constexpr int kJsonSchemaVersion = 1;

/** `git describe --always --dirty` of the source tree ("unknown" when
 *  the build was configured outside a git checkout). */
const char *gitDescribe();

/** Comma-joined list of replay kernel ISAs compiled into this build,
 *  e.g. "scalar,sse2,avx2,avx512" (CMake ALR_SIMD probes; the ISA a
 *  run actually uses is replay::selectedName). */
const char *simdBuild();

} // namespace alr::version

#endif // ALR_COMMON_VERSION_HH
