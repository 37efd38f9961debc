// Shared token-stream helpers for the analyzer (parse.cpp, rules.cpp).
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "lexer.hpp"

namespace iotls::lint::tok {

inline bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokenKind::Ident && t.text == text;
}

inline bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::Punct && t.text == text;
}

/// Index just past the bracketed region opened at toks[open] ("(", "[" or
/// "{"). Returns toks.size() when unterminated.
inline std::size_t skip_balanced(const std::vector<Token>& toks,
                                 std::size_t open, std::string_view open_text,
                                 std::string_view close_text) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], open_text)) {
      ++depth;
    } else if (is_punct(toks[i], close_text)) {
      if (--depth == 0) return i + 1;
    }
  }
  return toks.size();
}

/// Best-effort template-argument skip for toks[open] == "<". Returns the
/// index just past the matching ">", or npos when the "<" reads as a
/// comparison (statement boundary, logical operator, or no close nearby).
inline std::size_t skip_template_args(const std::vector<Token>& toks,
                                      std::size_t open, std::size_t limit) {
  constexpr std::size_t kMaxSpan = 64;
  int depth = 0;
  const std::size_t end =
      limit < open + kMaxSpan ? limit : open + kMaxSpan;
  for (std::size_t i = open; i < end; ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "<")) {
      ++depth;
    } else if (is_punct(t, ">")) {
      if (--depth == 0) return i + 1;
    } else if (is_punct(t, ">>")) {
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (is_punct(t, ";") || is_punct(t, "{") || is_punct(t, "&&") ||
               is_punct(t, "||")) {
      return static_cast<std::size_t>(-1);
    }
  }
  return static_cast<std::size_t>(-1);
}

}  // namespace iotls::lint::tok
