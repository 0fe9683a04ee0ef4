/**
 * @file
 * Test helpers for ledger files of a chosen framing version. A
 * RunLedger creates fresh files at the current version, and appends
 * to an existing file at that file's version; so an empty file
 * created here at version 2 makes a RunLedger write version-2 run
 * and commit frames into it.
 */

#ifndef VMARGIN_TESTS_CORE_LEDGER_FILES_HH
#define VMARGIN_TESTS_CORE_LEDGER_FILES_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>

#include "core/ledger.hh"

namespace vmargin::ledger_files
{

/** A little-endian u32, as the ledger writes one. */
inline void
putLittleU32(std::string &out, uint32_t value)
{
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(static_cast<char>((value >> shift) & 0xffu));
}

/** Write @p path as an empty ledger of framing @p version bound to
 *  @p header: the magic and the header frame. */
inline void
createLedgerFile(const std::string &path, const std::string &header,
                 uint32_t version)
{
    std::string payload;
    putLittleU32(payload, version);
    putLittleU32(payload, static_cast<uint32_t>(header.size()));
    payload += header;
    std::string bytes(kLedgerMagic, 4);
    appendFrame(bytes, payload);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** The framing version and binding header of ledger @p bytes (the
 *  header frame after the magic). */
inline std::pair<uint32_t, std::string>
ledgerHeaderOf(std::string_view bytes)
{
    FrameCursor cursor(bytes, 4);
    std::string_view payload;
    uint32_t checksum = 0;
    if (cursor.next(payload, checksum) != FrameCursor::Status::Frame ||
        payload.size() < 8)
        return {0, ""};
    const auto u32At = [&](size_t at) {
        uint32_t value = 0;
        for (size_t i = 0; i < 4; ++i)
            value |= static_cast<uint32_t>(
                         static_cast<unsigned char>(payload[at + i]))
                     << (8 * i);
        return value;
    };
    return {u32At(0), std::string(payload.substr(8, u32At(4)))};
}

} // namespace vmargin::ledger_files

#endif // VMARGIN_TESTS_CORE_LEDGER_FILES_HH
