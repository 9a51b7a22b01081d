// Serializes a liberty::Library to Liberty text, so a sized design can be
// handed to outside tools together with the cells it was sized against.
// Output is deterministic (the synthetic library's text is digest-pinned).
#pragma once

#include <string>

#include "liberty/model.h"

namespace statsizer::liberty {

/// Emits the library as Liberty text (ps / fF units).
[[nodiscard]] std::string write_library(const Library& lib);

}  // namespace statsizer::liberty
