/**
 * Corpus regression suite for the RL pipeline: every program under
 * tests/corpus/ must (a) agree across the interpreter, both backends,
 * and both simulator tiers, and (b) reproduce the golden observation
 * line recorded in tests/corpus/GOLDEN.txt — so a fuzz discovery,
 * once promoted into the corpus (docs/LANG.md), stays fixed forever.
 *
 * To refresh the goldens after an intended semantics change:
 *
 *     build/tests/test_lang_corpus --update-goldens
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "helpers.hh"
#include "lang/diff.hh"
#include "lang/parser.hh"

namespace risc1::lang {
namespace {

bool gUpdateGoldens = false;

std::string
corpusDir()
{
    return std::string(RISC1_SOURCE_DIR) + "/tests/corpus";
}

std::vector<std::string>
corpusFiles()
{
    std::vector<std::string> names;
    for (const auto &entry :
         std::filesystem::directory_iterator(corpusDir()))
        if (entry.path().extension() == ".rl")
            names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot read " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(LangCorpus, HasCriticalMass)
{
    // The ISSUE calls for ~20 promoted programs; never shrink below.
    EXPECT_GE(corpusFiles().size(), 20u);
}

TEST(LangCorpus, EveryProgramAgreesEverywhere)
{
    for (const auto &name : corpusFiles()) {
        SCOPED_TRACE(name);
        const Program program =
            parseProgram(readFile(corpusDir() + "/" + name));
        const DiffOutcome verdict = diffProgram(program);
        ASSERT_FALSE(verdict.skipped)
            << "corpus program blew the interpreter fuse: "
            << verdict.skipReason;
        EXPECT_TRUE(verdict.agreed) << verdict.report();
    }
}

TEST(LangCorpus, DiffRunsMatchPinnedDigest)
{
    // Pins what diffProgram reports per program: the four runs in
    // order, each matching the oracle, equal step counts across the
    // tiers of one ISA, and an FNV-1a over every run's config and
    // steps.  A change to how the harness assembles or loads programs
    // must leave all of it as it is.
    const std::vector<std::string> configs = {"risc/step", "risc/fast",
                                              "vax/step", "vax/fast"};
    std::vector<std::uint8_t> bytes;
    for (const auto &name : corpusFiles()) {
        SCOPED_TRACE(name);
        const Program program =
            parseProgram(readFile(corpusDir() + "/" + name));
        const DiffOutcome verdict = diffProgram(program);
        ASSERT_EQ(verdict.runs.size(), 4u) << verdict.report();
        for (std::size_t i = 0; i < 4; ++i) {
            const BackendRun &run = verdict.runs[i];
            EXPECT_EQ(run.config, configs[i]);
            EXPECT_TRUE(run.match) << run.config << ": " << run.error;
            bytes.insert(bytes.end(), run.config.begin(),
                         run.config.end());
            bytes.push_back(0);
            for (int b = 0; b < 8; ++b)
                bytes.push_back(
                    static_cast<std::uint8_t>(run.steps >> (8 * b)));
        }
        EXPECT_EQ(verdict.runs[0].steps, verdict.runs[1].steps);
        EXPECT_EQ(verdict.runs[2].steps, verdict.runs[3].steps);
    }
    EXPECT_EQ(test::fnv1a(bytes), 0x9e44cecb84b103e7ull);
}

TEST(LangCorpus, GoldenObservations)
{
    std::ostringstream lines;
    for (const auto &name : corpusFiles()) {
        SCOPED_TRACE(name);
        const Program program =
            parseProgram(readFile(corpusDir() + "/" + name));
        const InterpResult ref = interpret(program);
        ASSERT_TRUE(ref.ok) << ref.error;
        lines << name << " " << ref.obs.summary() << "\n";
    }

    const std::string goldenPath = corpusDir() + "/GOLDEN.txt";
    if (gUpdateGoldens) {
        std::ofstream out(goldenPath);
        ASSERT_TRUE(out) << "cannot write " << goldenPath;
        out << lines.str();
        std::cout << "updated " << goldenPath << "\n";
        return;
    }
    std::ifstream in(goldenPath);
    ASSERT_TRUE(in) << "missing golden " << goldenPath
                    << " — run with --update-goldens to create it";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), lines.str())
        << "corpus observations drifted; if intended, regenerate "
           "with `test_lang_corpus --update-goldens` and commit";
}

} // namespace
} // namespace risc1::lang

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--update-goldens")
            risc1::lang::gUpdateGoldens = true;
    return RUN_ALL_TESTS();
}
