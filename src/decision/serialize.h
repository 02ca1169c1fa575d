// File-level `.tgs` helpers.
//
// Since format v3 a DecisionTable IS its `.tgs` image (decision/table.h
// + decision/view.h), so serialization is trivial: to_bytes copies the
// table's bytes, save writes them, from_bytes / load adopt a v3 image
// into an owned heap buffer.  The bytes round-trip bit for bit (save →
// map → to_bytes is the identity on the image).  Serving processes
// should prefer `DecisionTable::map(path)`, which is zero-copy.
//
// SerializeError / VersionError and kFormatVersion live in
// decision/format.h; this header re-exports them via its include.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "decision/format.h"
#include "decision/table.h"

namespace tigat::decision {

// The table's v3 image, as a copy (the table keeps serving from its
// own bytes).
[[nodiscard]] std::vector<std::uint8_t> to_bytes(const DecisionTable& table);

// Adopts an in-memory v3 image.  Throws SerializeError on corruption,
// VersionError on a v1/v2 image.
[[nodiscard]] DecisionTable from_bytes(std::vector<std::uint8_t> bytes);

// Throws SerializeError on I/O failure, bad magic/version, checksum
// mismatch or structurally invalid content.
void save(const DecisionTable& table, const std::string& path);
[[nodiscard]] DecisionTable load(const std::string& path);

// The raw bytes of `path` (shared by load and the tgs-info dump).
// Throws SerializeError on I/O failure.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace tigat::decision
