#ifndef FABRICSIM_OBS_JSON_WRITER_H_
#define FABRICSIM_OBS_JSON_WRITER_H_

#include <charconv>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace fabricsim {

/// Base schema version stamped into machine-readable artifacts the
/// simulator emits (bench JSON and trace JSONL). Bump on any change to
/// the row layout so downstream tooling can dispatch on it.
inline constexpr int kObsSchemaVersion = 1;

/// Schema version for artifacts carrying per-channel result arrays
/// (multi-channel runs). Version-1 consumers keyed on the top-level
/// fields keep working: the header layout and the "rows" array are
/// unchanged, version 2 only *adds* the optional "channels" section
/// (documents) / channel-tagged rows (JSONL).
inline constexpr int kObsSchemaVersionChannels = 2;

/// Escapes a string for inclusion inside a JSON string literal
/// (quotes, backslashes, control characters).
std::string JsonEscape(const std::string& s);

/// Appends JsonEscape(s) to `out`.
void AppendJsonEscaped(const std::string& s, std::string* out);

/// Appends the decimal digits of an integer, as printf's %d / %u /
/// %lld / %llu print it.
template <typename Int>
void AppendDecimal(Int value, std::string* out) {
  char digits[24];
  char* end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  out->append(digits, end);
}

/// Stamps machine-readable artifacts with a versioned header. Two
/// artifact shapes share it:
///  * a document, buffered here and rendered by Render():
///      {"schema_version": N, "kind": "...", "config": "...",
///       "rows": [ ... ]}
///    used for the BENCH_*.json files, and
///  * JSONL, JsonlHeaderLine() followed by one row object per line,
///    used for transaction-trace exports. The exporter appends its
///    rows after the header into one buffer itself: a trace can run
///    to megabytes, and holding each row apart would double that.
/// Sharing the header keeps every artifact self-describing: the same
/// schema_version + kind + config echo appears in each.
///
/// Version 2 documents additionally carry per-channel result arrays:
///   {"schema_version": 2, ..., "rows": [...],
///    "channels": [ {"channel": 0, "rows": [...]}, ... ]}
/// Adding any per-channel row bumps the stamped version to 2
/// automatically; plain writers keep emitting version 1 byte-for-byte.
class VersionedJsonWriter {
 public:
  explicit VersionedJsonWriter(std::string kind);

  /// Human-readable echo of the generating configuration (e.g.
  /// ExperimentConfig::Describe()), emitted in the header.
  void set_config_echo(std::string echo) { config_echo_ = std::move(echo); }

  /// Overrides the stamped schema version (>= kObsSchemaVersion).
  /// Normally implicit: version 1 unless per-channel rows are added.
  void set_schema_version(int version);

  /// Opt-in header annotation recording the host's logical core count
  /// (e.g. std::thread::hardware_concurrency()). When set (> 0) the
  /// header gains a "hardware_concurrency" field so scaling artifacts
  /// are self-describing — a 1-core CI runner's numbers carry their
  /// own explanation. Unset writers render byte-identically to before
  /// the field existed, keeping trace goldens stable.
  void set_hardware_concurrency(unsigned cores) {
    hardware_concurrency_ = cores;
  }

  unsigned hardware_concurrency() const { return hardware_concurrency_; }

  int schema_version() const { return schema_version_; }

  /// Appends one complete JSON object (no trailing newline).
  void AddRow(std::string row_json);

  /// Appends one complete JSON object to `channel`'s result array,
  /// rendered grouped under "channels". Implies schema version >= 2.
  void AddChannelRow(int channel, std::string row_json);

  size_t row_count() const { return rows_.size(); }

  size_t channel_row_count() const;

  /// Renders the document into a string.
  std::string Render() const;

  /// The header as a JSONL artifact's first line, newline included.
  std::string JsonlHeaderLine() const;

  /// Renders the document and writes it to `path`. Returns false (and prints to
  /// stderr) when the file cannot be written.
  bool WriteFile(const std::string& path) const;

  /// Extracts the "schema_version" stamp from a rendered artifact
  /// (document or JSONL); -1 when the artifact carries none. Lets
  /// tooling dispatch between version-1 and version-2 shapes without a
  /// full JSON parser.
  static int ParseSchemaVersion(const std::string& artifact);

 private:
  std::string Header() const;

  std::string kind_;
  std::string config_echo_;
  int schema_version_ = kObsSchemaVersion;
  /// 0 = omit the header field (the pre-annotation byte layout).
  unsigned hardware_concurrency_ = 0;
  std::vector<std::string> rows_;
  /// channel -> rows, ordered by channel for deterministic rendering.
  std::map<int, std::vector<std::string>> channel_rows_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_OBS_JSON_WRITER_H_
