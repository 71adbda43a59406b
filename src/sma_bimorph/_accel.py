# The kernels are plain Python, never numba-compiled.  Only perfbench/run.py's
# run manifest reads this flag; it goes with the next benchmark change.
HAVE_NUMBA = False
