"""Multi-scale convolution block with multiplicative/subtractive fusion.

A micro deep-learning library built on numpy: direct convolution, a tape
autograd engine, the MSConv attention block with its selective-kernel
reference twin, margin softmax losses, synthetic verification data, and a
training CLI.  The package re-exports nothing; import its modules
(``msconv.block``, ``msconv.train``, ...).
"""

__version__ = "0.1.0"
