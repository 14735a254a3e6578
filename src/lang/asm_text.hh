/**
 * @file
 * The assembly text both RL lowerings write (compile_risc.cc,
 * compile_vax.cc): one reserved string that every line is appended to
 * in place, the label counter, and the `gvars` data block, which is the
 * same on both ISAs.
 */

#ifndef RISC1_LANG_ASM_TEXT_HH
#define RISC1_LANG_ASM_TEXT_HH

#include <string>
#include <string_view>

#include "common/logging.hh"
#include "lang/ast.hh"
#include "lang/layout.hh"

namespace risc1::lang {

class AsmText
{
  protected:
    /** Start the text with the one-line @p header comment. */
    explicit AsmText(std::string_view header)
    {
        // Most generated programs fit; larger ones grow geometrically.
        out_.reserve(16 * 1024);
        out_ += header;
        out_ += '\n';
    }

    /**
     * Append one line: @p label, then @p text at column 8 (or right
     * after a longer label), then @p comment.
     */
    void
    emit(std::string_view label, std::string_view text,
         std::string_view comment = {})
    {
        out_ += label;
        if (!text.empty()) {
            if (label.size() < 8)
                out_.append(8 - label.size(), ' ');
            out_ += text;
        }
        if (!comment.empty()) {
            out_ += "\t; ";
            out_ += comment;
        }
        out_ += '\n';
    }

    /** A label on its own line (attaches to the next statement). */
    void
    emitLabel(std::string_view label, std::string_view comment = {})
    {
        out_ += label;
        out_ += ':';
        if (!comment.empty()) {
            out_ += "\t; ";
            out_ += comment;
        }
        out_ += '\n';
    }

    /**
     * cat(@p parts...) as one line's text, in a buffer the next call
     * reuses: pass it straight to emit().
     */
    template <typename... Parts>
    std::string_view
    text(const Parts &...parts)
    {
        text_.clear();
        catTo(text_, parts...);
        return text_;
    }

    std::string
    newLabel()
    {
        return cat("Lx", labelN_++);
    }

    /** The `gvars` block (layout.hh): globals, out() count and buffer. */
    void
    emitData(const Program &prog, const DataLayout &layout)
    {
        emit("", ".align 4");
        bool first = true;
        for (const auto &entry : layout.entries) {
            const std::string label = first ? cat(kDataLabel, ":") : "";
            first = false;
            if (entry.isArray) {
                emit(label, text(".space ", 4 * entry.words),
                     cat(entry.name, "[", entry.words, "]"));
            } else {
                const int g = prog.findGlobal(entry.name);
                const std::uint32_t init =
                    prog.globals[static_cast<std::size_t>(g)].init;
                emit(label, text(".word ", static_cast<std::int32_t>(init)),
                     entry.name);
            }
        }
        emit(first ? cat(kDataLabel, ":") : "", ".word 0", "out() count");
        emit("", text(".space ", 4 * kOutCap), "out() buffer");
    }

    /** The finished text. */
    std::string
    take()
    {
        return std::move(out_);
    }

  private:
    std::string out_;
    std::string text_;
    int labelN_ = 0;
};

} // namespace risc1::lang

#endif // RISC1_LANG_ASM_TEXT_HH
