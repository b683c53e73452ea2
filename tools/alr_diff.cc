/**
 * @file
 * alr_diff: cross-run regression attribution for the observability
 * artifacts.
 *
 * Point it at any two JSON artifacts the repo emits -- alr_sim --json
 * reports, --profile cycle-accounting profiles, BENCH_*.json baselines,
 * metrics snapshots -- and it aligns them and explains the delta:
 * which rows, which (data-path x block-row x cause) buckets, which
 * stats, which energy components, and which build provenance changed.
 *
 *   alr_diff old_profile.json new_profile.json
 *   alr_diff BENCH_spmv.json build-rel/BENCH_spmv.json \
 *            --fail-on 'cycles>0,bytes>0,energy>0,stats>0' \
 *            --json diff.json --folded diff.folded
 *
 * With that rule list it is the one gate of the committed BENCH_*.json
 * baselines: exact cycles, bytes_streamed, energy components and
 * "stats" counters per row, no missing or new rows or counter fields,
 * no missing top-level keys, no row changing its suite, and every
 * row's wall_ms positive and within 25x of the baseline.
 *
 * Exit codes (CI contract):
 *   0  within threshold (or no --fail-on and diff computed)
 *   1  --fail-on rule exceeded
 *   2  usage / unreadable / unparseable / incomparable / malformed
 *      artifacts (a BENCH document that repeats a row name)
 *   3  conservation violated (bucket deltas do not sum to the total
 *      cycle delta -- an emitter bug, always worth failing loudly)
 *
 * --folded F writes two flamegraph.pl-compatible stacks: F.pos
 * (regressions) and F.neg (improvements), magnitudes only, so both
 * render with the stock tooling as a differential flamegraph pair.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "alrescha/sim/diff.hh"
#include "common/json.hh"

using namespace alr;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: alr_diff OLD.json NEW.json [options]\n"
        "  OLD/NEW: any two artifacts of the same kind -- alr_sim\n"
        "           --json report, --profile output, BENCH_*.json,\n"
        "           or a metrics snapshot\n"
        "  --json F      machine-readable diff document to F (- for\n"
        "                stdout, replacing the text report)\n"
        "  --folded F    differential flamegraph stacks to F.pos\n"
        "                (regressions) and F.neg (improvements)\n"
        "  --fail-on R   exit 1 when the diff exceeds any rule of the\n"
        "                comma list R of METRIC>NUM[%%] (metric:\n"
        "                cycles|bytes|energy|stats; %% is relative to\n"
        "                the old value), e.g. 'cycles>0,stats>0.1%%'\n"
        "  --top N       rows shown per ranked table (default 20)\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string oldPath, newPath, jsonPath, foldedPath, err;
    std::vector<diff::FailRule> rules;
    long topK = 20;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--json")
            jsonPath = next();
        else if (arg == "--folded")
            foldedPath = next();
        else if (arg == "--fail-on") {
            if (!diff::parseFailRules(next(), &rules, &err)) {
                std::fprintf(stderr, "alr_diff: %s\n", err.c_str());
                return 2;
            }
        } else if (arg == "--top") {
            std::string text = next();
            char *end = nullptr;
            errno = 0;
            topK = std::strtol(text.c_str(), &end, 10);
            if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
                topK <= 0)
                usage();
        } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
            usage();
        } else if (oldPath.empty()) {
            oldPath = arg;
        } else if (newPath.empty()) {
            newPath = arg;
        } else {
            usage();
        }
    }
    if (oldPath.empty() || newPath.empty())
        usage();

    json::Parsed oldDoc = json::parseFile(oldPath);
    if (!oldDoc) {
        std::fprintf(stderr, "alr_diff: %s\n", oldDoc.error.c_str());
        return 2;
    }
    json::Parsed newDoc = json::parseFile(newPath);
    if (!newDoc) {
        std::fprintf(stderr, "alr_diff: %s\n", newDoc.error.c_str());
        return 2;
    }

    diff::Document d;
    if (!diff::diff(oldDoc.value, newDoc.value, &d, &err)) {
        std::fprintf(stderr, "alr_diff: %s vs %s: %s\n",
                     oldPath.c_str(), newPath.c_str(), err.c_str());
        return 2;
    }

    if (jsonPath == "-") {
        diff::writeJson(std::cout, d);
    } else {
        if (!jsonPath.empty()) {
            std::ofstream jf(jsonPath);
            if (!jf) {
                std::fprintf(stderr, "alr_diff: cannot write %s\n",
                             jsonPath.c_str());
                return 2;
            }
            diff::writeJson(jf, d);
        }
        std::printf("diff %s -> %s\n", oldPath.c_str(),
                    newPath.c_str());
        diff::writeText(std::cout, d, size_t(topK));
    }
    std::cout.flush();

    if (!foldedPath.empty()) {
        std::ofstream pos(foldedPath + ".pos");
        std::ofstream neg(foldedPath + ".neg");
        if (!pos || !neg) {
            std::fprintf(stderr, "alr_diff: cannot write %s.{pos,neg}\n",
                         foldedPath.c_str());
            return 2;
        }
        diff::writeFolded(pos, neg, d);
    }

    if (!d.conserved) {
        std::fprintf(stderr,
                     "alr_diff: conservation violated: bucket deltas "
                     "do not sum to the total cycle delta\n");
        return 3;
    }
    if (std::string why = diff::gate(d, rules); !why.empty()) {
        std::fprintf(stderr, "alr_diff: %s\n", why.c_str());
        return 1;
    }
    return 0;
}
