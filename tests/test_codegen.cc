/**
 * Expression-level differential tests, written as RL programs: each
 * program runs through the reference interpreter (lang::interpret)
 * and on both Targets through both simulator tiers (lang::diffProgram),
 * and every run must match the oracle.  Cases with a value known in
 * advance pin it too.  This exercises the full pipeline (RL lowering
 * -> assembler -> loader -> simulator) one expression shape at a time.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "lang/compile.hh"
#include "lang/diff.hh"
#include "lang/parser.hh"
#include "lang/print.hh"

namespace risc1::lang {
namespace {

/** Globals v0, v1, ... holding @p vars, as RL declarations. */
std::string
declareVars(const std::vector<std::uint32_t> &vars)
{
    std::string text;
    for (std::size_t i = 0; i < vars.size(); ++i)
        text += "int v" + std::to_string(i) + " = " +
                std::to_string(vars[i]) + ";\n";
    return text;
}

/** `int main() { return <expr>; }` over globals holding @p vars. */
std::string
exprProgram(const std::string &expr, const std::vector<std::uint32_t> &vars)
{
    return declareVars(vars) + "int main() {\n  return " + expr + ";\n}\n";
}

/**
 * Require the interpreter and all four backend runs to agree on
 * @p source, and main to return @p want when given.
 */
void
expectAgreement(const std::string &source,
                std::optional<std::uint32_t> want = std::nullopt)
{
    SCOPED_TRACE(source);
    const DiffOutcome verdict = diffProgram(parseProgram(source));
    ASSERT_FALSE(verdict.skipped) << verdict.skipReason;
    ASSERT_EQ(verdict.runs.size(), 4u);
    EXPECT_TRUE(verdict.agreed) << verdict.report();
    if (want) {
        EXPECT_EQ(verdict.reference.obs.ret, *want);
    }
}

TEST(Codegen, ConstantsFlowThrough)
{
    expectAgreement(exprProgram("0xdeadbeef", {}), 0xdeadbeefu);
}

TEST(Codegen, VariablesLoadFromTable)
{
    expectAgreement(exprProgram("v2", {10, 20, 30, 40}), 30u);
}

TEST(Codegen, EachOperatorMatchesReference)
{
    const std::vector<std::uint32_t> vars = {0x12345678, 0x0f0f0f0f};
    const std::uint32_t a = vars[0], b = vars[1];
    const std::pair<const char *, std::uint32_t> binary[] = {
        {"+", a + b}, {"-", a - b}, {"&", a & b}, {"|", a | b},
        {"^", a ^ b},
    };
    for (const auto &[op, want] : binary)
        expectAgreement(
            exprProgram(std::string("(v0 ") + op + " v1)", vars), want);
    for (const unsigned k : {0u, 1u, 5u, 7u}) {
        const std::string count = std::to_string(k);
        expectAgreement(exprProgram("(v0 << " + count + ")", vars),
                        a << k);
        expectAgreement(exprProgram("(v0 >> " + count + ")", vars),
                        a >> k);
    }
}

TEST(Codegen, ShrIsLogicalOnNegativeValues)
{
    // The CISC's ashl is arithmetic; the lowering must mask to match
    // the language's logical shift.
    expectAgreement(exprProgram("(v0 >> 4)", {0xffff0000}), 0x0ffff000u);
}

TEST(Codegen, TooDeepTreeRejected)
{
    // A right-leaning tree of depth 12 needs more expression-stack
    // registers than the RISC lowering has (r16..r25).
    std::string expr = "v0";
    for (int i = 0; i < 12; ++i)
        expr = "(v0 + " + expr + ")";
    EXPECT_THROW(compileRisc(parseProgram(exprProgram(expr, {1}))),
                 FatalError);
}

TEST(Codegen, MissingVariableRejected)
{
    EXPECT_THROW(parseProgram(exprProgram("v3", {1, 2})), FatalError);
}

TEST(Codegen, ExprUtilities)
{
    const Program program = parseProgram(exprProgram("(v0 + 7)", {5}));
    EXPECT_EQ(printProgram(parseProgram(printProgram(program))),
              printProgram(program));
    EXPECT_NE(printProgram(program).find("return (v0 + 7);"),
              std::string::npos)
        << printProgram(program);
}

/**
 * A random expression over @p numVars globals, at most @p maxDepth
 * deep: the operator mix of the retired expression compiler, with
 * literal shift counts 0..7.
 */
std::string
randomExpr(Rng &rng, unsigned numVars, unsigned maxDepth)
{
    if (maxDepth == 0 || rng.chance(1, 4)) {
        if (rng.chance(1, 2))
            return "v" + std::to_string(rng.below(numVars));
        return std::to_string(static_cast<std::uint32_t>(rng.next()));
    }
    static const char *const ops[] = {"+", "-",  "&", "|",
                                      "^", "<<", ">>"};
    const std::string op = ops[rng.below(std::size(ops))];
    const std::string lhs = randomExpr(rng, numVars, maxDepth - 1);
    const std::string rhs = op == "<<" || op == ">>"
                                ? std::to_string(rng.below(8))
                                : randomExpr(rng, numVars, maxDepth - 1);
    return "(" + lhs + " " + op + " " + rhs + ")";
}

/** The differential property sweep. */
class CodegenDifferential
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CodegenDifferential, RandomTreesAgreeOnBothIsas)
{
    Rng rng(GetParam());
    for (int iter = 0; iter < 40; ++iter) {
        const unsigned numVars = 1 + static_cast<unsigned>(rng.below(6));
        std::vector<std::uint32_t> vars;
        for (unsigned i = 0; i < numVars; ++i)
            vars.push_back(static_cast<std::uint32_t>(rng.next()));
        expectAgreement(exprProgram(randomExpr(rng, numVars, 6), vars));
        if (HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodegenDifferential,
                         ::testing::Values(101u, 202u, 303u, 404u,
                                           505u, 606u));

} // namespace
} // namespace risc1::lang
