// Key/value encoding and the answer checker of the layered benchmark.
//
// Every stored value names the key it belongs to, the writer and a
// per-key version, so each answer the engine or the server returns can be
// checked against what the benchmark knows it acknowledged:
//   - an existing-key read must return that key's value, at a version no
//     older than the last one acknowledged before the read started and no
//     newer than the last one issued when it returned;
//   - a zero-result read (a key the workload never writes) must miss;
//   - a scan must return keys in strictly increasing order, inside the key
//     range, with no key skipped (every existing key stays live), each
//     with a value that passes the point-read check.

#ifndef LAYERBENCH_CHECK_H_
#define LAYERBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace layerbench {

constexpr size_t kValueSize = 100;
constexpr char kLoadWriter = 'L';

// Existing key `id` (0 <= id < num_keys) is stored under key number 2*id;
// key number 2*id+1 is never written, so it is a zero-result lookup that
// lies inside the key range.
std::string ExistingKey(uint64_t id);
std::string AbsentKey(uint64_t id);

// A kValueSize-byte value for (id, writer, version); the tail is filler
// derived from the header, so a torn or mixed-up value fails to parse.
std::string EncodeValue(uint64_t id, char writer, uint32_t version);

struct ParsedValue {
  uint64_t id = 0;
  char writer = 0;
  uint32_t version = 0;
};
bool ParseValue(const monkeydb::Slice& value, ParsedValue* out);

// Versions of one key that a read may legally observe.
struct VersionRange {
  uint32_t min = 0;  // Acknowledged before the read was issued.
  uint32_t max = 0;  // Issued by the time the read returned.
};

// Each check returns true when the answer is right; otherwise it fills
// *why with a one-line reason.
bool CheckValue(uint64_t id, const monkeydb::Status& s,
                const monkeydb::Slice& value, VersionRange range,
                std::string* why);
bool CheckZeroResult(const monkeydb::Status& s, std::string* why);

// rows: the (key, value) pairs a scan returned, starting at existing key
// `start_id`; ranges[i] bounds the version of key start_id + i. A scan
// that reaches the end of the key range returns fewer rows.
bool CheckScan(uint64_t start_id, uint64_t num_keys,
               const std::vector<std::pair<std::string, std::string>>& rows,
               const std::vector<VersionRange>& ranges, std::string* why);

}  // namespace layerbench

#endif  // LAYERBENCH_CHECK_H_
