// Three malformed/stale allows: an unknown rule name, a missing
// justification, and a well-formed allow that silences nothing.
// glap-lint: allow(wallclock): typo'd rule name, should be wall-clock
// glap-lint: allow(banned-random):
// glap-lint: allow(hot-alloc): stale — there is no allocation anywhere in this file
int x = 0;
