// Word tokenizer for attribute values and query tokens.

#ifndef PRECIS_TEXT_TOKENIZER_H_
#define PRECIS_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/symbol_table.h"

namespace precis {

/// \brief Splits text into lower-cased alphanumeric words.
///
/// "Woody Allen" -> {"woody", "allen"}; "Match Point (2005)" -> {"match",
/// "point", "2005"}. Both the inverted index (over attribute values) and the
/// query parser (over user tokens) use this, so a précis query token matches
/// irrespective of case and punctuation.
std::vector<std::string> TokenizeWords(std::string_view text);

/// \brief True if `words` occurs as a contiguous word sequence in `text`
/// (after tokenization). An empty word list never matches.
bool ContainsPhrase(std::string_view text,
                    const std::vector<std::string>& words);

/// \brief TokenizeWords, but each word is interned into the global
/// SymbolTable and returned as its SymbolId. The inverted index keys its
/// postings on these ids, so the token hot path hashes and compares 4-byte
/// ids instead of strings (DESIGN.md §13). Tokenization rules are
/// identical to TokenizeWords.
std::vector<SymbolId> TokenizeWordSymbols(std::string_view text);

/// \brief ContainsPhrase over interned words: true if `words` occurs as a
/// contiguous word sequence in the tokenization of `text`. Matches
/// ContainsPhrase exactly (interned-id equality <=> word equality). The
/// words of `text` are compared as bytes and never interned.
bool ContainsPhraseSymbols(std::string_view text,
                           const std::vector<SymbolId>& words);

}  // namespace precis

#endif  // PRECIS_TEXT_TOKENIZER_H_
