#ifndef FIELDDB_TESTS_CATALOG_SIGN_H_
#define FIELDDB_TESTS_CATALOG_SIGN_H_

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "core/catalog.h"

namespace fielddb {

/// Catalog `text` without its `crc32c` line.
inline std::string CatalogBodyOf(const std::string& text) {
  std::istringstream in(text);
  std::string body;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("crc32c ", 0) != 0) body += line + "\n";
  }
  return body;
}

/// Catalog `text` signed as a writer signs it: any `crc32c` line is
/// dropped and the checksum of what is left appended (SignCatalog).
inline std::string SignedCatalog(const std::string& text) {
  std::string signed_text = CatalogBodyOf(text);
  SignCatalog(&signed_text);
  return signed_text;
}

/// Re-signs the catalog file at `path` after a test edited it by hand,
/// so the edit reaches the validators behind the checksum instead of
/// failing it.
inline void ResignCatalog(const std::string& path) {
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << SignedCatalog(text);
}

}  // namespace fielddb

#endif  // FIELDDB_TESTS_CATALOG_SIGN_H_
