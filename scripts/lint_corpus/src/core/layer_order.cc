// Corpus: layer-order must fire on an include of a module above this file's
// own (core/, by its path) or of a module the layer list does not place, and
// stay silent on downward, same-module, debug/ and commented-out includes.
#include <vector>

#include "core/flow.h"
#include "debug/validate.h"
#include "opt/sizer_statistical.h"
#include "util/status.h"
#include "serve/job.h"  // expect-lint: layer-order
#  include "serve/session.h"  // expect-lint: layer-order
#include "nosuch/module.h"  // expect-lint: layer-order
// #include "serve/server.h"

// Waived: justified inline.
#include "serve/server.h"  // lint-ok: layer-order corpus example of a justified waiver
