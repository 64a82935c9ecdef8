// Little-endian byte (de)serialization: the one writer, reader and
// checksummed envelope of every binary format of this library.
//
// The formats — .natbin link streams (linkstream/binary_io), online
// checkpoints (online/checkpoint), session snapshots (natscale/session),
// daemon state files (service/server) and protocol frames
// (service/protocol) — are all little-endian with explicit byte shuffling,
// so they are identical on every host regardless of native endianness.
// Writer builds them.  Reader parses them, bounds-checking every read, and
// hands each failed check to a hook, so every format keeps its own error
// type: io_error naming the file or stream, protocol_error for frames.
//
// Checkpoints, session snapshots and daemon state files share one
// envelope, written by seal and checked by unseal:
//
//   offset  size  field
//   0       8     magic
//   8       4     version (u32)
//   12      ...   payload
//   end-8   8     FNV-1a 64 checksum of everything before it
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace natscale::wire {

inline void put_u32(std::byte* out, std::uint32_t value) {
    for (int i = 0; i < 4; ++i) out[i] = static_cast<std::byte>(value >> (8 * i));
}

inline void put_u64(std::byte* out, std::uint64_t value) {
    for (int i = 0; i < 8; ++i) out[i] = static_cast<std::byte>(value >> (8 * i));
}

inline std::uint32_t get_u32(const std::byte* in) {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
        value |= std::uint32_t(std::to_integer<std::uint8_t>(in[i])) << (8 * i);
    }
    return value;
}

inline std::uint64_t get_u64(const std::byte* in) {
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
        value |= std::uint64_t(std::to_integer<std::uint8_t>(in[i])) << (8 * i);
    }
    return value;
}

/// FNV-1a 64 over a byte range: the integrity checksum of the envelope.
/// Not cryptographic — it catches truncation and corruption, not tampering.
inline std::uint64_t fnv1a64(const std::byte* data, std::size_t size) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= std::to_integer<std::uint8_t>(data[i]);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/// A checksummed format: its magic and version, the noun its failure
/// messages use, and the size of its smallest well-formed image (fixed
/// header plus checksum; at least 20 bytes).
struct Envelope {
    const char* magic;  // 8 bytes, no terminator read
    std::uint32_t version;
    const char* noun;
    std::size_t min_bytes;
};

/// Append-only little-endian buffer builder.
class Writer {
public:
    Writer() = default;

    /// Starts a sealed image of `format`: its magic, then its version.
    explicit Writer(const Envelope& format) {
        // Reserving first also spares GCC 12 a false -Wstringop-overflow
        // on the first insert into an empty vector.
        bytes_.reserve(format.min_bytes);
        raw(format.magic, 8);
        u32(format.version);
    }

    void u32(std::uint32_t value) {
        std::byte piece[4];
        put_u32(piece, value);
        bytes_.insert(bytes_.end(), piece, piece + 4);
    }
    void u64(std::uint64_t value) {
        std::byte piece[8];
        put_u64(piece, value);
        bytes_.insert(bytes_.end(), piece, piece + 8);
    }
    void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
    void raw(const void* data, std::size_t size) {
        const auto* p = static_cast<const std::byte*>(data);
        bytes_.insert(bytes_.end(), p, p + size);
    }
    std::vector<std::byte>& bytes() { return bytes_; }

private:
    std::vector<std::byte> bytes_;
};

/// Appends the FNV-1a 64 of everything written to `out` and hands out the
/// sealed image.
inline std::vector<std::byte> seal(Writer& out) {
    out.u64(fnv1a64(out.bytes().data(), out.bytes().size()));
    return std::move(out.bytes());
}

/// Throws the reading format's error for a failed check: `source` names
/// the file or stream, `what` the check.  Must not return.
using FailHook = void (*)(const std::string& source, const std::string& what);

/// Bounds-checked forward reader over a byte span.  The checks cost one
/// comparison each; the hook, and every message string, are reached only
/// when one fails.
class Reader {
public:
    /// `noun` names the bytes in failure messages ("checkpoint",
    /// "payload"); `source` must outlive the reader.
    Reader(std::span<const std::byte> bytes, const char* noun, const std::string& source,
           FailHook fail) noexcept
        : bytes_(bytes), noun_(noun), source_(&source), fail_(fail) {}

    std::uint32_t u32() { return get_u32(take(4)); }
    std::uint64_t u64() { return get_u64(take(8)); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    /// The next `count` bytes.
    const std::byte* take(std::size_t count) {
        if (count > remaining()) fail(std::string("truncated ") + noun_);
        const std::byte* at = bytes_.data() + pos_;
        pos_ += count;
        return at;
    }

    /// Fails unless the unread bytes can hold `count` items of `item_bytes`
    /// each: the check before any allocation sized from an untrusted count.
    void require_items(std::uint64_t count, std::size_t item_bytes) const {
        if (count > remaining() / item_bytes) fail(std::string("truncated ") + noun_);
    }

    /// Fails unless every byte was read: trailing bytes mean corruption
    /// (or an attack), not a benign extension.
    void done() const {
        if (remaining() != 0) fail(std::string("trailing bytes in ") + noun_);
    }

    std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

    /// Throws the format's error through the hook.
    [[noreturn]] void fail(const std::string& what) const {
        fail_(*source_, what);
        std::abort();  // unreachable: every hook throws
    }

private:
    std::span<const std::byte> bytes_;
    std::size_t pos_ = 0;
    const char* noun_;
    const std::string* source_;
    FailHook fail_;
};

/// Checks a sealed image of `format` — minimum size, checksum, magic, then
/// version — and returns a Reader over the payload between the version and
/// the checksum.  `source` must outlive the reader.
inline Reader unseal(std::span<const std::byte> bytes, const Envelope& format,
                     const std::string& source, FailHook fail) {
    const std::string_view noun = format.noun;
    const Reader whole(bytes, format.noun, source, fail);
    if (bytes.size() < format.min_bytes) {
        whole.fail("truncated " + std::string(noun) + " header");
    }
    const std::size_t body = bytes.size() - 8;
    if (get_u64(bytes.data() + body) != fnv1a64(bytes.data(), body)) {
        whole.fail(std::string(noun) + " checksum mismatch");
    }
    Reader in(bytes.first(body), format.noun, source, fail);
    if (std::memcmp(in.take(8), format.magic, 8) != 0) {
        in.fail("not a " + std::string(noun) + " (bad magic)");
    }
    const std::uint32_t version = in.u32();
    if (version != format.version) {
        in.fail("unsupported " + std::string(noun) + " version " + std::to_string(version));
    }
    return in;
}

}  // namespace natscale::wire
