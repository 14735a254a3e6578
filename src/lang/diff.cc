#include "lang/diff.hh"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "target/registry.hh"
#include "vax/vassembler.hh"

namespace risc1::lang {

std::string
describeMismatch(const Observation &want, const Observation &got)
{
    std::ostringstream os;
    os << std::hex;
    if (got.ret != want.ret) {
        os << "ret: want 0x" << want.ret << " got 0x" << got.ret;
        return os.str();
    }
    if (got.globals.size() != want.globals.size()) {
        os << std::dec << "globals size: want " << want.globals.size()
           << " got " << got.globals.size();
        return os.str();
    }
    for (std::size_t i = 0; i < want.globals.size(); ++i) {
        if (got.globals[i] != want.globals[i]) {
            os << "globals[" << std::dec << i << std::hex
               << "]: want 0x" << want.globals[i] << " got 0x"
               << got.globals[i];
            return os.str();
        }
    }
    if (got.outTotal != want.outTotal) {
        os << std::dec << "outTotal: want " << want.outTotal << " got "
           << got.outTotal;
        return os.str();
    }
    if (got.out != want.out) {
        for (std::size_t i = 0;
             i < std::min(got.out.size(), want.out.size()); ++i) {
            if (got.out[i] != want.out[i]) {
                os << "out[" << std::dec << i << std::hex
                   << "]: want 0x" << want.out[i] << " got 0x"
                   << got.out[i];
                return os.str();
            }
        }
        os << std::dec << "out size: want " << want.out.size()
           << " got " << got.out.size();
        return os.str();
    }
    return "";
}

BackendRun
runBackend(const std::string &targetName, const risc1::Program &image,
           const DataLayout &layout, bool fast, std::uint64_t maxSimSteps)
{
    BackendRun run;
    run.config = cat(targetName, fast ? "/fast" : "/step");
    try {
        auto t = target::makeTarget(targetName);
        t->loadProgram(image);
        const auto gvars = image.symbols.find(kDataLabel);
        if (gvars == image.symbols.end())
            panic(cat("lang diff: no '", kDataLabel, "' symbol in ",
                      targetName, " program"));
        const std::uint32_t base = gvars->second;
        const RunOutcome outcome = t->run(maxSimSteps, fast);
        run.steps = outcome.steps;
        if (!outcome.halted) {
            run.error = cat("did not halt within ", maxSimSteps,
                            " instructions");
            return run;
        }
        run.obs.ret = t->checksum();
        run.obs.globals.reserve(layout.globalWords);
        for (std::uint32_t w = 0; w < layout.globalWords; ++w)
            run.obs.globals.push_back(t->peekWord(base + 4 * w));
        run.obs.outTotal =
            t->peekWord(base + 4 * layout.outCountWord);
        const std::uint64_t stored =
            std::min<std::uint64_t>(run.obs.outTotal, kOutCap);
        run.obs.out.reserve(static_cast<std::size_t>(stored));
        for (std::uint64_t i = 0; i < stored; ++i)
            run.obs.out.push_back(t->peekWord(
                base + 4 * (layout.outBufWord +
                            static_cast<std::uint32_t>(i))));
        run.ok = true;
    } catch (const FatalError &e) {
        run.error = e.what();
    }
    return run;
}

DiffOutcome
diffProgram(const Program &program, const DiffLimits &limits)
{
    DiffOutcome outcome;
    InterpLimits il;
    il.maxSteps = limits.maxInterpSteps;
    outcome.reference = interpret(program, il);
    if (!outcome.reference.ok) {
        outcome.skipped = true;
        outcome.skipReason = outcome.reference.error;
        return outcome;
    }

    CompiledProgram risc, vax;
    risc1::Program riscImage, vaxImage;
    const char *stage = "";
    try {
        risc = compileRisc(program);
        vax = compileVax(program);
        stage = "risc assembly: ";
        riscImage = assembleRisc(risc.source);
        stage = "vax assembly: ";
        vaxImage = assembleVax(vax.source);
    } catch (const FatalError &e) {
        // A valid program a backend cannot lower, or whose lowering
        // does not assemble, is itself a finding.
        BackendRun fail;
        fail.config = "compile";
        fail.error = cat(stage, e.what());
        outcome.runs.push_back(std::move(fail));
        return outcome;
    }

    const Observation &want = outcome.reference.obs;
    for (const auto &[name, image, layout] :
         {std::tuple<const char *, const risc1::Program &,
                     const DataLayout &>{"risc", riscImage, risc.layout},
          {"vax", vaxImage, vax.layout}}) {
        for (const bool fast : {false, true}) {
            BackendRun run = runBackend(name, image, layout, fast,
                                        limits.maxSimSteps);
            if (run.ok) {
                const std::string diff =
                    describeMismatch(want, run.obs);
                run.match = diff.empty();
                if (!run.match)
                    run.error = diff;
            }
            outcome.runs.push_back(std::move(run));
        }
    }
    outcome.agreed =
        std::all_of(outcome.runs.begin(), outcome.runs.end(),
                    [](const BackendRun &r) { return r.match; });
    return outcome;
}

std::string
DiffOutcome::report() const
{
    if (agreed)
        return "";
    std::ostringstream os;
    if (skipped) {
        os << "skipped: " << skipReason << "\n";
        return os.str();
    }
    os << "reference: " << reference.obs.summary() << " ("
       << reference.steps << " interp steps, " << reference.calls
       << " calls)\n";
    for (const auto &run : runs) {
        os << "  " << run.config << ": ";
        if (run.match)
            os << "match (" << run.steps << " instructions)";
        else if (run.ok)
            os << "MISMATCH: " << run.error;
        else
            os << "FAILED: " << run.error;
        os << "\n";
    }
    return os.str();
}

} // namespace risc1::lang
