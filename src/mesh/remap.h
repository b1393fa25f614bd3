// The block <-> pencil remap of grid data, in the mesh layer's spelling.
//
// HACC's particle sector lives on a 3-D block decomposition while its FFT
// lives on 2-D pencils; the PM solve therefore remaps grid data between the
// two layouts on every long-range step (as in HACC's released SWFFT
// "distribution" component). That remap is the same box exchange as the
// pencil FFT's own transposes, so it is the one engine of fft/box_remap.h
// instantiated for real grid values; BlockFft runs it in place.
#pragma once

#include "fft/box_remap.h"

namespace hacc::mesh {

using Redistributor = fft::BoxRemap<double>;

}  // namespace hacc::mesh
