// Must fail to compile: common/assert.hpp poisons GLAP_ENABLE_CHECKS, the
// CMake option name, because no build defines it for the compiler. This
// guard would compile its body out of every build, checks on or off.
#include "common/assert.hpp"

#ifdef GLAP_ENABLE_CHECKS
int hot_checks_enabled() { return 1; }
#endif
