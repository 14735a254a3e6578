#include "target/snapshot_io.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <concepts>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <type_traits>

#include "common/logging.hh"
#include "target/machine_target.hh"

namespace risc1::target {

namespace {

// Format header: "R1SN" + a version that moves whenever any serialized
// struct gains, loses, or reorders a field.
constexpr std::uint32_t kMagic = 0x4e533152; // "R1SN" little-endian
constexpr std::uint16_t kVersion = 1;

/**
 * Append-only little-endian encoder.  Each record's fields are listed
 * once, in a function template run over either this or Dec, so the
 * two share member names; an integer's width is its C++ type's.
 */
class Enc
{
  public:
    std::vector<std::uint8_t> out;

    template <std::integral T>
        requires(!std::same_as<T, bool>)
    void
    num(T v)
    {
        const auto u = static_cast<std::make_unsigned_t<T>>(v);
        for (std::size_t i = 0; i < sizeof(T); ++i)
            out.push_back(static_cast<std::uint8_t>(u >> (8 * i)));
    }

    void
    boolean(bool v)
    {
        out.push_back(v ? 1 : 0);
    }

    /** An enumerator as its underlying integer (@p max: see Dec). */
    template <typename E>
    void
    enumerator(E v, E /*max*/)
    {
        num(static_cast<std::underlying_type_t<E>>(v));
    }

    /** A u32 element count, then @p each element. */
    template <typename V, typename F>
    void
    seq(const V &v, F each)
    {
        num(static_cast<std::uint32_t>(v.size()));
        for (const typename V::value_type x : v)
            each(x);
    }

    /** A presence bool, then the value if present. */
    template <typename T, typename F>
    void
    optional(const std::optional<T> &o, F each)
    {
        boolean(o.has_value());
        if (o)
            each(*o);
    }

    void
    raw(const std::uint8_t *data, std::size_t n)
    {
        out.insert(out.end(), data, data + n);
    }
};

/** Bounds-checked little-endian decoder over untrusted input. */
class Dec
{
  public:
    Dec(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    template <std::integral T>
        requires(!std::same_as<T, bool>)
    void
    num(T &v)
    {
        need(sizeof(T));
        std::make_unsigned_t<T> u = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            u |= static_cast<std::make_unsigned_t<T>>(data_[pos_ + i])
                 << (8 * i);
        pos_ += sizeof(T);
        v = static_cast<T>(u);
    }

    void
    boolean(bool &v)
    {
        std::uint8_t raw = 0;
        num(raw);
        if (raw > 1)
            fatal(cat("snapshot decode: bad bool ", unsigned(raw),
                      " at byte ", pos_ - 1));
        v = raw != 0;
    }

    /** An enumerator, rejected unless it lies in [0, @p max]. */
    template <typename E>
    void
    enumerator(E &v, E max)
    {
        using U = std::underlying_type_t<E>;
        U raw = 0;
        num(raw);
        if (raw > static_cast<U>(max))
            fatal(cat("snapshot decode: enumerator ", std::uint64_t(raw),
                      " out of range at byte ", pos_ - sizeof(U)));
        v = static_cast<E>(raw);
    }

    template <typename V, typename F>
    void
    seq(V &v, F each)
    {
        using T = typename V::value_type;
        const std::size_t n = length(sizeof(T));
        v.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            T x{};
            each(x);
            v.push_back(x);
        }
    }

    template <typename T, typename F>
    void
    optional(std::optional<T> &o, F each)
    {
        bool present = false;
        boolean(present);
        if (present)
            each(o.emplace());
        else
            o.reset();
    }

    void
    raw(std::uint8_t *data, std::size_t n)
    {
        need(n);
        std::copy_n(data_ + pos_, n, data);
        pos_ += n;
    }

    /**
     * A u32 count of elements at least @p elemBytes long each, which
     * must fit in the remaining input — so a corrupt count cannot
     * trigger a huge allocation.
     */
    std::size_t
    length(std::size_t elemBytes)
    {
        std::uint32_t n = 0;
        num(n);
        if (elemBytes != 0 && n > (size_ - pos_) / elemBytes)
            fatal(cat("snapshot decode: length ", n,
                      " exceeds remaining input at byte ", pos_));
        return n;
    }

    void
    finish() const
    {
        if (pos_ != size_)
            fatal(cat("snapshot decode: ", size_ - pos_,
                      " trailing bytes"));
    }

  private:
    void
    need(std::size_t n)
    {
        if (size_ - pos_ < n)
            fatal(cat("snapshot decode: truncated at byte ", pos_));
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

// -- Field lists: one per record, run by both Enc and Dec ---------------

/** A length-prefixed sequence of integers. */
template <typename Io, typename V>
void
nums(Io &io, V &v)
{
    io.seq(v, [&](auto &x) { io.num(x); });
}

template <typename Io, typename S>
void
memStats(Io &io, S &s)
{
    io.num(s.reads);
    io.num(s.writes);
    io.num(s.fetches);
    io.num(s.bytesRead);
    io.num(s.bytesWritten);
}

// Memory pages are the one record with separate write and read code:
// they are written straight from the shared page handles, so taking a
// snapshot and spooling it never makes a private copy of the content.
// Per page: base, then the length-prefixed valid bytes (a trailing
// partial page writes only its valid prefix).

void
pages(Enc &e, const MemoryImage &image)
{
    e.num(static_cast<std::uint32_t>(image.entries.size()));
    for (const auto &entry : image.entries) {
        e.num(entry.base);
        e.num(entry.length);
        e.raw(entry.page->bytes.data(), entry.length);
    }
}

void
pages(Dec &d, MemoryImage &image)
{
    // Each page contributes at least base (4) + length (4) bytes.
    image.entries.resize(d.length(8));
    for (auto &entry : image.entries) {
        d.num(entry.base);
        const std::size_t length = d.length(1);
        if (length == 0 || length > Page::size)
            fatal(cat("snapshot decode: bad page length ", length,
                      " at 0x", std::hex, entry.base));
        entry.length = static_cast<std::uint32_t>(length);
        auto page = std::make_shared<Page>();
        d.raw(page->bytes.data(), length);
        entry.page = std::move(page);
    }
}

template <typename Io, typename H>
void
hierarchy(Io &io, H &h)
{
    for (auto *level : {&h.l1i, &h.l1d, &h.l2}) {
        io.optional(*level, [&](auto &l) {
            io.num(l.config.sizeBytes);
            io.num(l.config.lineBytes);
            io.num(l.config.missPenaltyCycles);
            io.enumerator(l.config.policy, mem::WritePolicy::WriteBack);
            nums(io, l.tags);
            io.seq(l.valid, [&](auto &b) { io.boolean(b); });
            io.seq(l.dirty, [&](auto &b) { io.boolean(b); });
            io.num(l.stats.hits);
            io.num(l.stats.misses);
            io.num(l.stats.writebacks);
            io.num(l.stats.penaltyCycles);
        });
    }
}

// -- RISC I backend ----------------------------------------------------

template <typename Io, typename S>
void
runStats(Io &io, S &s)
{
    io.num(s.cycles);
    io.num(s.instructions);
    for (auto &v : s.perOpcode)
        io.num(v);
    for (auto &v : s.perClass)
        io.num(v);
    io.num(s.takenTransfers);
    io.num(s.untakenJumps);
    io.num(s.delaySlotsExecuted);
    io.num(s.delaySlotNops);
    io.num(s.calls);
    io.num(s.returns);
    io.num(s.windowOverflows);
    io.num(s.windowUnderflows);
    io.num(s.callDepth);
    io.num(s.maxCallDepth);
    io.num(s.loadCount);
    io.num(s.storeCount);
    io.num(s.spillWords);
    io.num(s.fillWords);
    io.num(s.softSaveWords);
    io.num(s.softRestoreWords);
    io.num(s.regOperandReads);
    io.num(s.regOperandWrites);
}

template <typename Io, typename S>
void
risc(Io &io, S &s)
{
    io.num(s.windows.numGlobals);
    io.num(s.windows.numLocals);
    io.num(s.windows.overlap);
    io.num(s.windows.numWindows);
    io.num(s.memorySize);
    io.boolean(s.windowedCalls);

    nums(io, s.physRegs);
    io.num(s.cwp);
    io.boolean(s.psw.cc.n);
    io.boolean(s.psw.cc.z);
    io.boolean(s.psw.cc.v);
    io.boolean(s.psw.cc.c);
    io.boolean(s.psw.intEnable);
    io.num(s.psw.cwp);
    io.num(s.psw.swp);
    io.num(s.pc);
    io.num(s.npc);
    io.num(s.lastPc);
    io.boolean(s.halted);
    io.boolean(s.inDelaySlot);
    io.boolean(s.hasNpcOverride);
    io.num(s.npcOverride);
    io.num(s.resident);
    io.num(s.saved);
    io.num(s.spillSp);
    io.num(s.softSp);
    io.boolean(s.interruptPending);
    io.num(s.interruptVector);
    io.num(s.interruptsTaken);

    runStats(io, s.stats);
    memStats(io, s.memStats);
    io.seq(s.callTrace,
           [&](auto &ev) { io.enumerator(ev, CallEvent::Return); });

    pages(io, s.pages);
    hierarchy(io, s.caches);
}

// -- VAX backend -------------------------------------------------------

template <typename Io, typename S>
void
vaxStats(Io &io, S &s)
{
    io.num(s.cycles);
    io.num(s.instructions);
    for (auto &v : s.perClass)
        io.num(v);
    io.num(s.branchesTaken);
    io.num(s.branchesUntaken);
    io.num(s.calls);
    io.num(s.returns);
    io.num(s.callDepth);
    io.num(s.maxCallDepth);
    io.num(s.memOperandReads);
    io.num(s.memOperandWrites);
    io.num(s.regOperandReads);
    io.num(s.regOperandWrites);
    io.num(s.instrBytes);
}

template <typename Io, typename S>
void
vax(Io &io, S &s)
{
    io.num(s.memorySize);
    for (auto &r : s.regs)
        io.num(r);
    io.boolean(s.cc.n);
    io.boolean(s.cc.z);
    io.boolean(s.cc.v);
    io.boolean(s.cc.c);
    io.boolean(s.halted);
    vaxStats(io, s.stats);
    memStats(io, s.memStats);
    pages(io, s.pages);
    hierarchy(io, s.caches);
}

} // namespace

std::vector<std::uint8_t>
serializeSnapshot(const TargetSnapshot &snap)
{
    Enc e;
    e.num(kMagic);
    e.num(kVersion);
    const std::string_view backend = snap.backend();
    nums(e, backend);
    if (const auto *r = dynamic_cast<const RiscTargetSnapshot *>(&snap))
        risc(e, r->machineSnapshot());
    else if (const auto *v = dynamic_cast<const VaxTargetSnapshot *>(&snap))
        vax(e, v->machineSnapshot());
    else
        fatal(cat("serializeSnapshot: unsupported backend '",
                  snap.backend(), "'"));
    return std::move(e.out);
}

std::shared_ptr<const TargetSnapshot>
deserializeSnapshot(const std::uint8_t *data, std::size_t size)
{
    Dec d(data, size);
    std::uint32_t magic = 0;
    d.num(magic);
    if (magic != kMagic)
        fatal("snapshot decode: bad magic");
    std::uint16_t version = 0;
    d.num(version);
    if (version != kVersion)
        fatal(cat("snapshot decode: unsupported version ", version));
    std::string backend;
    nums(d, backend);
    std::shared_ptr<const TargetSnapshot> snap;
    if (backend == RiscBackend::name) {
        MachineSnapshot s;
        risc(d, s);
        snap = std::make_shared<RiscTargetSnapshot>(std::move(s));
    } else if (backend == VaxBackend::name) {
        VaxSnapshot s;
        vax(d, s);
        snap = std::make_shared<VaxTargetSnapshot>(std::move(s));
    } else {
        fatal(cat("snapshot decode: unknown backend '", backend, "'"));
    }
    d.finish();
    return snap;
}

std::shared_ptr<const TargetSnapshot>
deserializeSnapshot(const std::vector<std::uint8_t> &bytes)
{
    return deserializeSnapshot(bytes.data(), bytes.size());
}

void
writeSnapshotFile(const std::string &path, const TargetSnapshot &snap)
{
    // Write <path>.tmp, make it durable, then rename it over <path>:
    // a failure or crash at any point leaves the old <path> intact.
    const std::vector<std::uint8_t> bytes = serializeSnapshot(snap);
    const std::string tmp = path + ".tmp";
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0)
        fatal(cat("cannot open snapshot file for writing: ", tmp, ": ",
                  std::strerror(errno)));
    std::size_t done = 0;
    while (done < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        done += std::size_t(n);
    }
    bool ok = done == bytes.size() && ::fsync(fd) == 0;
    ok = ::close(fd) == 0 && ok;
    ok = ok && ::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok) {
        const std::string why = std::strerror(errno);
        ::unlink(tmp.c_str());
        fatal(cat("cannot write snapshot file ", path, ": ", why));
    }
}

std::shared_ptr<const TargetSnapshot>
readSnapshotFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal(cat("cannot open snapshot file: ", path));
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return deserializeSnapshot(bytes);
}

} // namespace risc1::target
