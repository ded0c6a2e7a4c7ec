"""DOP853: the explicit Runge-Kutta 8(5,3) pair of Dormand and Prince.

The tableau, the error estimate that blends the embedded 5th- and 3rd-order
formulas, the step-size controller, the starting-step heuristic and the
7th-degree dense output (three extra stages) are those of Hairer, Norsett &
Wanner, *Solving Ordinary Differential Equations I*, 2nd ed., Sec. II.4 and
II.10, and of their Fortran code DOP853.  Every operation is written in the
order that ``scipy.integrate.DOP853`` performs it, so a solve here reproduces
scipy's bit for bit; the tests run the two side by side.

A stage point y + (k[:s]^T A_s)(h + 0j) takes one BLAS dot for the tableau's
weighted sum; the product by h + 0j and the sum with y are Python complex
arithmetic on its ``tolist()``, whose ``*`` and ``+`` are numpy's operation
for operation.  They part in one corner only: a product that underflows to
zero, where numpy's fused multiply-add keeps the sign of the exact product,
and that sign shows only where the state holds -0.0.  A mode solve never
does: its zeros start as +0.0, and a sum with a +0.0 or a nonzero part never
gives -0.0.

Only what the mode solver needs is kept: forward integration of a complex
state between two times with scalar tolerances; the embedded error estimate
alone sets each step.  The caller has validated the tolerances.
"""

from __future__ import annotations

import math
from cmath import isfinite
from operator import add
from typing import Callable, Sequence

import numpy as np

from .errors import IntegrationError

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

SAFETY = 0.9  # applied to the asymptotically optimal step
MIN_FACTOR = 0.2  # largest decrease of the step size in one attempt
MAX_FACTOR = 10  # largest increase of the step size after one step
ERROR_EXPONENT = -1 / 8  # -1 / (order of the error estimator + 1)

# Butcher tableau: nodes C, stage weights A (row 12 holds the 8th-order
# weights B, rows 13-15 the dense-output stages), error weights E3 and E5 and
# the dense-output coefficients D of the 4th- to 7th-degree terms.
C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
])

_A_ROWS = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {
        0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1,
    },
    5: {
        0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1,
    },
    6: {
        0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2,
    },
    7: {
        0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3,
    },
    8: {
        0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1,
    },
    9: {
        0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2,
    },
    10: {
        0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
        4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
        6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
        8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022,
    },
    11: {
        0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
        4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
        6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
        8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
        10: 6.43392746015763530355970484046e-1,
    },
    12: {
        0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
        6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
        8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
        10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2,
    },
    13: {
        0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
        7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
        9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
        11: 7.56789766054569976138603589584e-3, 12: -8.298e-3,
    },
    14: {
        0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
        6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
        10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
        12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1,
    },
    15: {
        0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
        6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
        8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
        13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138,
    },
}
A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
for _i, _row in _A_ROWS.items():
    for _j, _a in _row.items():
        A[_i, _j] = _a

B = A[N_STAGES, :N_STAGES]

# E3 = B - (the 3rd-order weights), E5 = 5th-order error weights; both act on
# the 12 stages and f(t + h, y_new).
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
]

D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
_D_COLUMNS = [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]
D[0, _D_COLUMNS] = [
    -0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
    -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
    0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
    0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
    -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
    -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1,
]
D[1, _D_COLUMNS] = [
    0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
    0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
    -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
    -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
    0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
    -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2,
]
D[2, _D_COLUMNS] = [
    0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
    -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
    -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
    -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
    -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
    0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2,
]
D[3, _D_COLUMNS] = [
    -0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
    -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
    0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
    0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
    -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
    -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3,
]

# Every product of the weights is with complex stages, so the weights are
# stored complex: np.dot would otherwise cast them on each call, to the same
# bits.  The stepper reads A row by row and the nodes as floats.
A, B, E3, E5, D = (x.astype(complex) for x in (A, B, E3, E5, D))
_A_ROWS = [A[s, :s] for s in range(N_STAGES_EXTENDED)]
_C = C.tolist()


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of a complex vector, by numpy's own formula."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _rms(x: np.ndarray) -> float:
    return _norm(x) / x.size ** 0.5


class Dop853:
    """Forward DOP853 integration of y' = fun(t, y) from ``t0`` to ``t_bound``.

    ``fun(t, y)`` receives y as a list of Python complex numbers and returns
    any sequence of y's size: an ndarray, or a tuple or list of numbers,
    which costs no array build.  The evaluations the stepper keeps (the
    first, and f(t + h, y_new) of each attempt) are made complex ndarrays;
    the others are written straight into the complex stage array.  ``step``
    makes one accepted step (``t``, ``y`` move to its end) and
    ``dense_output`` returns the interpolant over the last one.  ``nfev``,
    ``steps`` and ``rejected`` count right-hand-side evaluations, accepted
    steps and rejected attempts.  A step size that falls below ten ulps of
    ``t`` raises ``IntegrationError``, and so does a new state or a
    dense-output stage that is not finite (a stage sum that overflowed);
    exceptions from ``fun`` propagate.

    Each stage sum is a BLAS dot of the stages with the tableau's weights,
    then Python complex arithmetic: the product by h + 0j, the value numpy
    would cast a float step to, and the sum with y.  The error estimate's
    weighted sums and norms stay numpy and BLAS calls.  The step-size
    control, the interpolant's first three coefficients and its Horner loop
    run on Python floats, as the real operations of numpy's complex
    arithmetic, so the bits stay scipy's.
    """

    def __init__(
        self,
        fun: Callable[[float, list[complex]], Sequence[complex]],
        t0: float,
        y0: np.ndarray,
        t_bound: float,
        rtol: float,
        atol: float,
    ) -> None:
        y0 = np.asarray(y0).astype(complex, copy=False)
        if not np.isfinite(y0).all():
            raise ValueError("the initial state is not finite")
        self._fun = fun
        self.t_bound, self.rtol, self.atol = t_bound, rtol, atol
        self.nfev = self.steps = self.rejected = 0
        self.t_old = self.y_old = None
        self.t, self.y = t0, y0
        self._abs_y = np.abs(y0)  # |y| of the last accepted step, for the error scale
        self.f = self._rhs(t0, y0.tolist())
        self.h_abs = self._initial_step()
        # stages of the last attempt; rows 13-15 are filled by dense_output.
        # _kt[s] is the view k[:s].T that stage s combines.
        self._k = np.empty((N_STAGES_EXTENDED, y0.size), dtype=complex)
        self._kt = [self._k[:s].T for s in range(N_STAGES_EXTENDED)]

    def _rhs(self, t: float, y: list[complex]) -> np.ndarray:
        self.nfev += 1
        f = self._fun(t, y)
        if type(f) is np.ndarray and f.dtype == complex:
            return f
        return np.asarray(f, dtype=complex)

    def _initial_step(self) -> float:
        """The starting step of Hairer, Norsett & Wanner, Sec. II.4."""
        t0, y0, f0 = self.t, self.y, self.f
        interval_length = abs(self.t_bound - t0)
        scale = self.atol + self._abs_y * self.rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = self._rhs(t0 + h0, (y0 + h0 * f0).tolist())
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        return min(100 * h0, h1, interval_length)

    def _attempt(self, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """One 12-stage step of size h: the new state, f and |y| there, the error norm."""
        t, y, k, kt, fun = self.t, self.y.tolist(), self._k, self._kt, self._fun
        scaled = complex(h).__mul__
        k[0] = self.f
        for s in range(1, N_STAGES):
            dy = kt[s].dot(_A_ROWS[s]).tolist()
            k[s] = fun(t + _C[s] * h, list(map(add, y, map(scaled, dy))))
        self.nfev += N_STAGES - 1
        y_new = list(map(add, y, map(scaled, kt[N_STAGES].dot(B).tolist())))
        # Python arithmetic overflows to inf where numpy would raise.  For a
        # right-hand side that reads y, as the mode equations' do, a
        # non-finite stage point makes its stage non-finite, and through the
        # weights every later one and y_new, so one check of y_new ends the
        # attempt at any overflowing stage sum.
        if not all(map(isfinite, y_new)):
            raise IntegrationError("overflow in a stage sum: the new state is not finite")
        f_new = self._rhs(t + h, y_new)
        k[N_STAGES] = f_new
        y_new = np.array(y_new)

        # the scale is made complex once, which each division would do
        abs_y_new = np.abs(y_new)
        scale = (self.atol + np.maximum(self._abs_y, abs_y_new) * self.rtol).astype(complex)
        stages = kt[N_STAGES + 1]
        err5_norm_2 = _norm(stages.dot(E5) / scale) ** 2
        err3_norm_2 = _norm(stages.dot(E3) / scale) ** 2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return y_new, f_new, abs_y_new, 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return y_new, f_new, abs_y_new, abs(h) * err5_norm_2 / math.sqrt(denom * len(y))

    def step(self) -> None:
        """Advance by one accepted step, shrinking the step until one passes."""
        t = self.t
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)

        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(f"step size collapsed below {min_step:.3g}")
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, abs_y_new, error_norm = self._attempt(h)
            if error_norm < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
            self.rejected += 1

        if error_norm == 0:
            factor = MAX_FACTOR
        else:
            factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
        if rejected:
            factor = min(1, factor)
        self.h_abs = h_abs * factor
        self.t_old, self.y_old = t, self.y
        self.t, self.y, self.f, self._abs_y = t_new, y_new, f_new, abs_y_new
        self.steps += 1

    def dense_output(self) -> Callable[[float], np.ndarray]:
        """The 7th-degree interpolant over the last accepted step."""
        k, kt, fun, t_old = self._k, self._kt, self._fun, self.t_old
        y_old = self.y_old.tolist()
        h = self.t - t_old
        hc = complex(h)
        scaled = hc.__mul__
        for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
            dy = kt[s].dot(_A_ROWS[s]).tolist()
            point = list(map(add, y_old, map(scaled, dy)))
            if not all(map(isfinite, point)):
                raise IntegrationError("overflow in a stage sum: a dense-output stage is not finite")
            k[s] = fun(t_old + _C[s] * h, point)
        self.nfev += N_STAGES_EXTENDED - N_STAGES - 1

        # F3..F6 = h * (D k) stay a BLAS product.  F0 = y - y_old,
        # F1 = h f_old - F0 and F2 = 2 F0 - h (f + f_old) are formed per
        # component on Python floats, with numpy's product by h + 0j and 2 + 0j.
        high = hc * D.dot(k)
        components = []
        for f6_f3_re, f6_f3_im, y1, y0, f0, f1 in zip(
            high.real[::-1].T.tolist(), high.imag[::-1].T.tolist(),
            self.y.tolist(), y_old, k[0].tolist(), self.f.tolist(),
        ):
            d_re, d_im = y1.real - y0.real, y1.imag - y0.imag
            s_re, s_im = f1.real + f0.real, f1.imag + f0.imag
            re = [
                *f6_f3_re,
                (2 * d_re - 0.0 * d_im) - (h * s_re - 0.0 * s_im),
                (h * f0.real - 0.0 * f0.imag) - d_re,
                d_re,
            ]
            im = [
                *f6_f3_im,
                (2 * d_im + 0.0 * d_re) - (h * s_im + 0.0 * s_re),
                (h * f0.imag + 0.0 * f0.real) - d_im,
                d_im,
            ]
            components.append((re, im, y0.real, y0.imag))

        def interpolate(t: float) -> np.ndarray:
            x = (t - t_old) / h
            u = 1 - x
            factors = (x, u, x, u, x, u, x)
            y = []
            for terms_re, terms_im, base_re, base_im in components:
                re = im = 0.0
                for f_re, f_im, m in zip(terms_re, terms_im, factors):
                    re += f_re
                    im += f_im
                    # numpy's complex product with m + 0j
                    re, im = re * m - im * 0.0, re * 0.0 + im * m
                y.append(complex(re + base_re, im + base_im))
            return np.array(y)

        return interpolate
