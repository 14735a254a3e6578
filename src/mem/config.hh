/**
 * @file
 * Shared textual cache-level specs, used verbatim by the riscsim CLI
 * flags and the riscbatch job-file keys so the two front-ends cannot
 * drift (docs/MEMORY.md):
 *
 *     size,line,missPenalty[,wt|wb]
 *
 * e.g. "1024,16,4" (write-through, the default) or "4096,32,20,wb".
 */

#ifndef RISC1_MEM_CONFIG_HH
#define RISC1_MEM_CONFIG_HH

#include <string>

#include "mem/hierarchy.hh"

namespace risc1 {
namespace mem {

/**
 * Parse a level spec into a LevelConfig.  @p context prefixes the
 * one-line error message (e.g. "job file line 12: 'l1i'" or
 * "riscsim: --l1i"); @throws FatalError on a malformed spec.
 * Geometry is validated later, when the Level is constructed.
 */
LevelConfig parseLevelSpec(const std::string &spec,
                           const std::string &context);

/** Render @p config back into its spec form (for docs and errors). */
std::string formatLevelSpec(const LevelConfig &config);

} // namespace mem
} // namespace risc1

#endif // RISC1_MEM_CONFIG_HH
