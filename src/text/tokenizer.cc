#include "text/tokenizer.h"

#include <cctype>

namespace precis {

namespace {

// True if the `n` words `word(0..n)` occur as a contiguous run of
// `text_words`.
template <typename WordAt>
bool ContainsWordRun(const std::vector<std::string>& text_words, size_t n,
                     WordAt word) {
  if (n > text_words.size()) return false;
  for (size_t start = 0; start + n <= text_words.size(); ++start) {
    size_t i = 0;
    while (i < n && text_words[start + i] == word(i)) ++i;
    if (i == n) return true;
  }
  return false;
}

}  // namespace

std::vector<std::string> TokenizeWords(std::string_view text) {
  std::vector<std::string> words;
  std::string current;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!current.empty()) {
      words.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) words.push_back(std::move(current));
  return words;
}

std::vector<SymbolId> TokenizeWordSymbols(std::string_view text) {
  std::vector<SymbolId> words;
  SymbolTable* symbols = SymbolTable::Global();
  // One reused buffer: clear() keeps the capacity, so steady-state
  // tokenization of a value allocates nothing per word.
  std::string current;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!current.empty()) {
      words.push_back(symbols->Intern(current));
      current.clear();
    }
  }
  if (!current.empty()) words.push_back(symbols->Intern(current));
  return words;
}

bool ContainsPhraseSymbols(std::string_view text,
                           const std::vector<SymbolId>& words) {
  if (words.empty()) return false;
  // Equal ids are equal bytes, so comparing the value's words with each
  // id's interned string is the id comparison — without interning the
  // value's words, which would take a SymbolTable shard lock per word.
  const SymbolTable* symbols = SymbolTable::Global();
  return ContainsWordRun(TokenizeWords(text), words.size(),
                         [&](size_t i) { return symbols->str(words[i]); });
}

bool ContainsPhrase(std::string_view text,
                    const std::vector<std::string>& words) {
  if (words.empty()) return false;
  return ContainsWordRun(
      TokenizeWords(text), words.size(),
      [&](size_t i) -> const std::string& { return words[i]; });
}

}  // namespace precis
