#include "src/obs/json_writer.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace fabricsim {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(s, &out);
  return out;
}

void AppendJsonEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

VersionedJsonWriter::VersionedJsonWriter(std::string kind)
    : kind_(std::move(kind)) {}

void VersionedJsonWriter::set_schema_version(int version) {
  if (version < kObsSchemaVersion) version = kObsSchemaVersion;
  schema_version_ = version;
}

void VersionedJsonWriter::AddRow(std::string row_json) {
  rows_.push_back(std::move(row_json));
}

void VersionedJsonWriter::AddChannelRow(int channel, std::string row_json) {
  channel_rows_[channel].push_back(std::move(row_json));
  if (schema_version_ < kObsSchemaVersionChannels) {
    schema_version_ = kObsSchemaVersionChannels;
  }
}

size_t VersionedJsonWriter::channel_row_count() const {
  size_t count = 0;
  for (const auto& [channel, rows] : channel_rows_) count += rows.size();
  return count;
}

std::string VersionedJsonWriter::Header() const {
  std::string header = "\"schema_version\": " +
                       std::to_string(schema_version_) + ", \"kind\": \"" +
                       JsonEscape(kind_) + "\", \"config\": \"" +
                       JsonEscape(config_echo_) + "\"";
  if (hardware_concurrency_ > 0) {
    header += ", \"hardware_concurrency\": " +
              std::to_string(hardware_concurrency_);
  }
  return header;
}

std::string VersionedJsonWriter::JsonlHeaderLine() const {
  return "{" + Header() + "}\n";
}

std::string VersionedJsonWriter::Render() const {
  std::string out;
  out += "{\n  " + Header() + ",\n  \"rows\": [\n";
  for (size_t i = 0; i < rows_.size(); ++i) {
    out += "    " + rows_[i];
    if (i + 1 < rows_.size()) out += ',';
    out += '\n';
  }
  out += "  ]";
  if (!channel_rows_.empty()) {
    out += ",\n  \"channels\": [\n";
    size_t rendered = 0;
    for (const auto& [channel, rows] : channel_rows_) {
      out += "    {\"channel\": " + std::to_string(channel) +
             ", \"rows\": [\n";
      for (size_t i = 0; i < rows.size(); ++i) {
        out += "      " + rows[i];
        if (i + 1 < rows.size()) out += ',';
        out += '\n';
      }
      out += "    ]}";
      if (++rendered < channel_rows_.size()) out += ',';
      out += '\n';
    }
    out += "  ]";
  }
  out += "\n}\n";
  return out;
}

int VersionedJsonWriter::ParseSchemaVersion(const std::string& artifact) {
  static const char kField[] = "\"schema_version\":";
  size_t pos = artifact.find(kField);
  if (pos == std::string::npos) return -1;
  pos += sizeof(kField) - 1;
  while (pos < artifact.size() &&
         std::isspace(static_cast<unsigned char>(artifact[pos]))) {
    ++pos;
  }
  if (pos >= artifact.size() ||
      !std::isdigit(static_cast<unsigned char>(artifact[pos]))) {
    return -1;
  }
  return std::atoi(artifact.c_str() + pos);
}

bool VersionedJsonWriter::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::string rendered = Render();
  std::fwrite(rendered.data(), 1, rendered.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace fabricsim
