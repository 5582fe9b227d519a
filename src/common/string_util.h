// Small string helpers shared by the kernel-language front end and reports.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace p2g {

/// Splits on a single character; empty pieces are kept.
std::vector<std::string> split(std::string_view text, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

bool ends_with(std::string_view text, std::string_view suffix);

/// Joins pieces with a separator.
std::string join(const std::vector<std::string>& pieces, std::string_view sep);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Renders "1234567" as "1,234,567" for the micro-benchmark tables.
std::string with_thousands(int64_t value);

/// Escapes a string for embedding inside a JSON string literal: `"`, `\`
/// and control characters (as \uXXXX). Shared by the trace and metrics
/// serializers so kernel names with quotes stay valid JSON.
std::string json_escape(std::string_view text);

}  // namespace p2g
