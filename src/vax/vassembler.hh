/**
 * @file
 * Two-pass assembler for the CISC baseline machine.
 *
 * Syntax (VAX-flavoured, operands src -> dst):
 *
 *     ; comment
 *             .org  0x1000
 *     start:  movl  #5, r0
 *             addl3 r0, r1, r2
 *             movl  12(r3), r4        ; displacement
 *             movl  (r5)+, r6         ; autoincrement
 *             pushl r0
 *             calls #1, func
 *             halt
 *     func:   .mask 0x0c              ; entry mask: save r2, r3
 *             movl  4(ap), r0         ; first argument
 *             ret
 *
 * Operand forms: #expr (literal/immediate), rN/ap/fp/sp/pc, (rN),
 * (rN)+, -(rN), expr(rN), @expr (absolute), bare expr (absolute, or a
 * branch displacement for branch opcodes).
 *
 * Directives: the shared set of asm/twopass.hh (.org .word .half
 * .byte .space .ascii .asciz .align .equ .entry), with nothing
 * aligned (.org takes any address), plus `.mask <expr>` emitting the
 * 16-bit procedure entry mask CALLS expects into the code.
 */

#ifndef RISC1_VAX_VASSEMBLER_HH
#define RISC1_VAX_VASSEMBLER_HH

#include <cstdint>
#include <string>

#include "common/program.hh"

namespace risc1 {

/**
 * Assemble baseline (CISC) source into a program image that ends
 * within the first @p memoryBytes bytes (by default, the 32-bit
 * address space).
 * @throws FatalError with line information on any error.
 */
Program assembleVax(const std::string &source,
                    std::uint64_t memoryBytes = std::uint64_t{1} << 32);

} // namespace risc1

#endif // RISC1_VAX_VASSEMBLER_HH
