/**
 * @file
 * Two-pass RISC I assembler.
 *
 * Syntax overview (see README for the full reference):
 *
 *     ; comment
 *             .org  0x1000
 *     start:  ldi   r1, 100000       ; pseudo: ldhi+add when needed
 *             add   r2, r1, 5
 *             subs  r0, r2, r1       ; trailing 's' sets cond codes
 *             beq   done             ; pseudo for jmpr eq, label
 *             nop                    ; delay slot
 *             ldl   r3, table(r0)
 *             stl   r3, 0(r2)
 *             call  func             ; pseudo for callr r31, func
 *             nop
 *     done:   halt                   ; self-jump halt convention
 *     table:  .word 1, 2, 3
 *
 * Pseudo-instructions: nop, mov, ldi, clr, inc, dec, cmp, not, neg,
 * halt, call <label>, ret (no operands), and b<cond> <label> for every
 * jump condition.
 *
 * Directives: the shared set of asm/twopass.hh (.org .word .half
 * .byte .space .ascii .asciz .align .equ .entry); instructions and
 * .org are word-aligned.
 */

#ifndef RISC1_ASM_ASSEMBLER_HH
#define RISC1_ASM_ASSEMBLER_HH

#include <cstdint>
#include <string>

#include "common/program.hh"

namespace risc1 {

/**
 * Assemble RISC I source text into a program image that ends within
 * the first @p memoryBytes bytes (by default, the 32-bit address
 * space).
 * @throws FatalError with line information on any error.
 */
Program assembleRisc(const std::string &source,
                     std::uint64_t memoryBytes = std::uint64_t{1} << 32);

} // namespace risc1

#endif // RISC1_ASM_ASSEMBLER_HH
