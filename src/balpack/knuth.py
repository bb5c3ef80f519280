"""The classic Knuth balancing code lives in the block kernel; this module holds no code.

A Knuth codeword is ``encode_packet(x, Scheme.KNUTH).bits`` from
:mod:`balpack.subsets`: a ceil(log2 k)-bit prefix holding e - 1, where e is
the first balancing index of ``x``, then the balanced payload, ``x`` with
its first e bits inverted.  ``decode_packet`` inverts it and accepts only
what the encoder emits.  The file stays only because the benchmark tracer
imports ``balpack.knuth`` by name; it goes when that hook is dropped.
"""
