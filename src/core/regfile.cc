#include "core/regfile.hh"

#include "common/logging.hh"

namespace risc1 {

RegGroup
regGroup(unsigned reg)
{
    if (reg < 10)
        return RegGroup::Global;
    if (reg < 16)
        return RegGroup::Low;
    if (reg < 26)
        return RegGroup::Local;
    if (reg < 32)
        return RegGroup::High;
    panic(cat("visible register out of range: ", reg));
}

RegFile::RegFile(const WindowConfig &config)
    : config_(config)
{
    if (config_.numGlobals + config_.numLocals + 2 * config_.overlap != 32)
        fatal("window config must expose exactly 32 visible registers");
    if (config_.numWindows < 2 ||
        config_.numWindows > WindowConfig::maxWindows)
        fatal(cat("window config needs 2..", WindowConfig::maxWindows,
                  " windows, got ", config_.numWindows));
    phys_.assign(config_.physRegs(), 0);
}

unsigned
RegFile::windowBase(unsigned window) const
{
    return config_.numGlobals + window * config_.frameSize();
}

unsigned
RegFile::physIndex(unsigned reg) const
{
    if (reg >= 32)
        panic(cat("visible register out of range: ", reg));
    switch (regGroup(reg)) {
      case RegGroup::Global:
        return reg;
      case RegGroup::Low:
      case RegGroup::Local:
        // LOW at frame offsets 0..5, LOCAL at 6..15.
        return windowBase(cwp_) + (reg - 10);
      case RegGroup::High:
        // HIGH of this window is LOW of the window above (the caller).
        return windowBase((cwp_ + 1) % config_.numWindows) + (reg - 26);
    }
    panic("unreachable");
}

std::uint32_t
RegFile::read(unsigned reg) const
{
    if (reg == 0)
        return 0;
    return phys_[physIndex(reg)];
}

void
RegFile::write(unsigned reg, std::uint32_t value)
{
    if (reg == 0)
        return; // r0 is hardwired to zero
    phys_[physIndex(reg)] = value;
}

void
RegFile::pushWindow()
{
    cwp_ = (cwp_ + config_.numWindows - 1) % config_.numWindows;
}

void
RegFile::popWindow()
{
    cwp_ = (cwp_ + 1) % config_.numWindows;
}

std::uint32_t
RegFile::frameReg(unsigned window, unsigned index) const
{
    if (window >= config_.numWindows || index >= config_.frameSize())
        panic(cat("frameReg(", window, ", ", index, ") out of range"));
    const unsigned base = windowBase(window);
    const unsigned next = windowBase((window + 1) % config_.numWindows);
    if (index < config_.overlap)
        return phys_[next + index];
    return phys_[base + index];
}

void
RegFile::setFrameReg(unsigned window, unsigned index, std::uint32_t value)
{
    if (window >= config_.numWindows || index >= config_.frameSize())
        panic(cat("setFrameReg(", window, ", ", index, ") out of range"));
    const unsigned base = windowBase(window);
    const unsigned next = windowBase((window + 1) % config_.numWindows);
    if (index < config_.overlap)
        phys_[next + index] = value;
    else
        phys_[base + index] = value;
}

void
RegFile::reset()
{
    phys_.assign(config_.physRegs(), 0);
    cwp_ = 0;
}

void
RegFile::restore(const std::vector<std::uint32_t> &phys, unsigned cwp)
{
    if (phys.size() != phys_.size())
        fatal(cat("regfile restore: snapshot has ", phys.size(),
                  " physical registers, this file has ", phys_.size()));
    if (cwp >= config_.numWindows)
        fatal(cat("regfile restore: CWP ", cwp, " out of range for ",
                  config_.numWindows, " windows"));
    phys_ = phys;
    cwp_ = cwp;
}

} // namespace risc1
