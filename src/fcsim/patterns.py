"""The record layout: a mask bit per detector, the click patterns (sets of
masks) and the correlations (ratios of pattern probabilities), which the
click engine (fockstats) computes and the record estimators count alike."""

import numpy as np

# record mask bit of each detector; a detector set A is indexed by its mask
MASK_H, MASK_S, MASK_R1, MASK_R2 = 1, 2, 4, 8
DETECTOR_BITS = {"H": MASK_H, "S": MASK_S, "R1": MASK_R1, "R2": MASK_R2}

_MASKS = np.arange(16)
# AT_LEAST[b, c]: every detector of set b clicks in the click pattern c
AT_LEAST = (_MASKS[None, :] & _MASKS[:, None]) == _MASKS[:, None]

# pattern name -> required mask bits, for the patterns in which all named detectors click
PATTERNS = {
    "h": MASK_H,
    "s": MASK_S,
    "r1": MASK_R1,
    "r2": MASK_R2,
    "hs": MASK_H | MASK_S,
    "hr1": MASK_H | MASK_R1,
    "hr2": MASK_H | MASK_R2,
    "r1r2": MASK_R1 | MASK_R2,
    "hr1r2": MASK_H | MASK_R1 | MASK_R2,
}
_ANY_R = AT_LEAST[MASK_R1] | AT_LEAST[MASK_R2]
# pattern name -> the record masks it covers; "r" is R1 or R2, "hr" is H and R1 or R2
PATTERN_MASKS = {**{name: AT_LEAST[bits] for name, bits in PATTERNS.items()},
                 "r": _ANY_R, "hr": AT_LEAST[MASK_H] & _ANY_R}
# (mask, pattern) 0/1 matrix: a mask histogram times it counts every pattern
PATTERN_MATRIX = np.column_stack(tuple(PATTERN_MASKS.values())).astype(np.int64)

# correlation -> (numerator patterns, denominator patterns); its value is
# prod(p_num) / prod(p_den), from model probabilities and record frequencies alike
RATIOS = {
    "g2_xc_hs": (("hs",), ("h", "s")),
    "g2_xc_hr": (("hr",), ("h", "r")),
    "g2_ac_heralded": (("hr1r2", "h"), ("hr1", "hr2")),
    "g2_noise": (("r1r2",), ("r1", "r2")),
    "heralding_efficiency": (("hr",), ("h",)),
    "klyshko_efficiency": (("hs",), ("s",)),
}
