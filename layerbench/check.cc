#include "check.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace layerbench {

namespace {

std::string KeyNumber(uint64_t n) {
  char buf[24];
  snprintf(buf, sizeof(buf), "k%013" PRIu64, n);
  return buf;
}

// "id=000000000042 w=L v=0000000003 |" followed by filler.
constexpr size_t kHeaderSize = 34;

char FillerByte(uint64_t id, uint32_t version, size_t i) {
  return static_cast<char>('a' + (id * 31 + uint64_t{version} * 17 + i * 7) %
                                     26);
}

}  // namespace

std::string ExistingKey(uint64_t id) { return KeyNumber(2 * id); }
std::string AbsentKey(uint64_t id) { return KeyNumber(2 * id + 1); }

std::string EncodeValue(uint64_t id, char writer, uint32_t version) {
  char header[kHeaderSize + 1];
  snprintf(header, sizeof(header), "id=%012" PRIu64 " w=%c v=%010u |", id,
           writer, version);
  std::string v(header, kHeaderSize);
  v.reserve(kValueSize);
  for (size_t i = kHeaderSize; i < kValueSize; i++) {
    v.push_back(FillerByte(id, version, i));
  }
  return v;
}

bool ParseValue(const monkeydb::Slice& value, ParsedValue* out) {
  if (value.size() != kValueSize) return false;
  const char* p = value.data();
  if (memcmp(p, "id=", 3) != 0 || memcmp(p + 15, " w=", 3) != 0 ||
      memcmp(p + 19, " v=", 3) != 0 || memcmp(p + 32, " |", 2) != 0) {
    return false;
  }
  uint64_t id = 0;
  for (size_t i = 3; i < 15; i++) {
    if (p[i] < '0' || p[i] > '9') return false;
    id = id * 10 + static_cast<uint64_t>(p[i] - '0');
  }
  uint64_t version = 0;
  for (size_t i = 22; i < 32; i++) {
    if (p[i] < '0' || p[i] > '9') return false;
    version = version * 10 + static_cast<uint64_t>(p[i] - '0');
  }
  if (version > UINT32_MAX) return false;
  for (size_t i = kHeaderSize; i < kValueSize; i++) {
    if (p[i] != FillerByte(id, static_cast<uint32_t>(version), i)) {
      return false;
    }
  }
  out->id = id;
  out->writer = p[18];
  out->version = static_cast<uint32_t>(version);
  return true;
}

bool CheckValue(uint64_t id, const monkeydb::Status& s,
                const monkeydb::Slice& value, VersionRange range,
                std::string* why) {
  if (!s.ok()) {
    *why = "read of existing key " + std::to_string(id) +
           " failed: " + s.ToString();
    return false;
  }
  ParsedValue parsed;
  if (!ParseValue(value, &parsed)) {
    *why = "value of key " + std::to_string(id) + " does not parse";
    return false;
  }
  if (parsed.id != id) {
    *why = "key " + std::to_string(id) + " returned the value of key " +
           std::to_string(parsed.id);
    return false;
  }
  if ((parsed.version == 0) != (parsed.writer == kLoadWriter)) {
    *why = "key " + std::to_string(id) + " has writer '" +
           std::string(1, parsed.writer) + "' at version " +
           std::to_string(parsed.version);
    return false;
  }
  if (parsed.version < range.min || parsed.version > range.max) {
    *why = "key " + std::to_string(id) + " returned version " +
           std::to_string(parsed.version) + " outside [" +
           std::to_string(range.min) + ", " + std::to_string(range.max) +
           "]";
    return false;
  }
  return true;
}

bool CheckZeroResult(const monkeydb::Status& s, std::string* why) {
  if (s.IsNotFound()) return true;
  *why = s.ok() ? "zero-result key was found"
                : "zero-result read failed: " + s.ToString();
  return false;
}

bool CheckScan(uint64_t start_id, uint64_t num_keys,
               const std::vector<std::pair<std::string, std::string>>& rows,
               const std::vector<VersionRange>& ranges, std::string* why) {
  for (size_t i = 1; i < rows.size(); i++) {
    if (!(rows[i - 1].first < rows[i].first)) {
      *why = "scan from key " + std::to_string(start_id) +
             " is not strictly increasing at row " + std::to_string(i);
      return false;
    }
  }
  const size_t expected =
      start_id >= num_keys
          ? 0
          : static_cast<size_t>(
                std::min<uint64_t>(ranges.size(), num_keys - start_id));
  if (rows.size() != expected) {
    *why = "scan from key " + std::to_string(start_id) + " returned " +
           std::to_string(rows.size()) + " rows, expected " +
           std::to_string(expected);
    return false;
  }
  for (size_t i = 0; i < rows.size(); i++) {
    const uint64_t id = start_id + i;
    if (rows[i].first != ExistingKey(id)) {
      *why = "scan from key " + std::to_string(start_id) + " row " +
             std::to_string(i) + " is '" + rows[i].first + "', expected '" +
             ExistingKey(id) + "'";
      return false;
    }
    if (!CheckValue(id, monkeydb::Status::OK(), rows[i].second, ranges[i],
                    why)) {
      return false;
    }
  }
  return true;
}

}  // namespace layerbench
