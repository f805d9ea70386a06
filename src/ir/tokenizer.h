// Text tokenization for the IR pipeline.
//
// The attention parser and the content recommender both reduce text (page
// bodies, URLs, story transcripts) to lower-case terms. The tokenizer
// splits on non-alphanumeric characters, lower-cases, and drops tokens
// that are too short/long or purely numeric — the standard preprocessing
// for the BM25 / Offer Weight computations in this module.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace reef::ir {

struct TokenizerOptions {
  std::size_t min_length = 2;
  std::size_t max_length = 40;
  bool drop_numeric = true;
};

/// Splits `text` into normalized tokens.
std::vector<std::string> tokenize(std::string_view text,
                                  const TokenizerOptions& options);
std::vector<std::string> tokenize(std::string_view text);

/// Streaming form of tokenize(), the one loop that holds the token rules:
/// appends each token of `text` to `bytes` (lower-cased, back to back, no
/// separators) and the token's end offset in `bytes` to `ends`. Started
/// from two empty buffers, or from what earlier calls left in them, token
/// i spans [ends[i - 1], ends[i]) and the first token starts at 0. A run
/// longer than max_length is buffered to max_length bytes at most, so a
/// caller that reuses one pair of buffers across documents allocates
/// nothing once they have grown to the largest document.
void tokenize_append(std::string_view text, const TokenizerOptions& options,
                     std::string& bytes, std::vector<std::size_t>& ends);

/// True for terms in the built-in English stopword list (already
/// lower-case input expected).
bool is_stopword(std::string_view term) noexcept;

/// Number of entries in the stopword list (for tests).
std::size_t stopword_count() noexcept;

/// Porter's stemming algorithm (the 1980 original). Input must be
/// lower-case ASCII; returns the stem. Strings shorter than 3 characters
/// are returned unchanged (per the algorithm).
std::string porter_stem(std::string_view word);

/// Full preprocessing: tokenize, drop stopwords, stem.
std::vector<std::string> analyze(std::string_view text);

}  // namespace reef::ir
