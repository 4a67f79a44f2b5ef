#include "exec/exec_context.h"

namespace arraydb::exec {

MorselOptions ExecContext::morsel_options() const {
  MorselOptions options;
  options.threads = data_plane_threads;
  options.grain_cells = morsel_grain;
  options.yield = yield;
  return options;
}

JoinOptions ExecContext::join_options() const {
  JoinOptions options;
  options.morsel = morsel_options();
  options.partition_bits = join_partition_bits;
  return options;
}

}  // namespace arraydb::exec
