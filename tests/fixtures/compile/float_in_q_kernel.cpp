// Must fail to compile under GLAP_FLOAT_CHECKS (top-level CMakeLists.txt):
// a float round-trip in a Q-table kernel silently perturbs merge results
// and breaks the golden tests. `theirs - mine` promotes `mine` implicitly.
float merge(float mine, double theirs, double weight) {
  return mine + static_cast<float>(weight * (theirs - mine));
}
