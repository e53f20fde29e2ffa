"""Sharp constants of multivariate Bernstein-Nikolskii inequalities.

Numerical toolkit around two extremal quantities: the best constant in
``||D T||_{L_q(Q_pi)} <= C ||T||_{L_p(Q_pi)}`` over trigonometric
polynomials with spectrum in a dilated convex body, and its continuum
analogue over band-limited functions on R^m.  Closed forms, certified
brackets, a multistart lower-bound optimizer, and the periodization
operator connecting the two live in the submodules:

- :mod:`bnsharp.body`         convex bodies, dual norms, lattice points
- :mod:`bnsharp.trigpoly`     sparse trigonometric polynomials and norms
- :mod:`bnsharp.bandlimited`  concrete band-limited candidate functions
- :mod:`bnsharp.levitan`      periodization with certified truncation
- :mod:`bnsharp.constants`    sharp-constant closed forms, bounds, optimizer
- :mod:`bnsharp.cli`          experiment runner (``bnsharp`` entry point)
"""

__version__ = "0.1.0"

from .body import ConvexBody, lattice_orbits, parse_body
from .trigpoly import (DifferentialOperator, NormEstimate, TrigPolynomial,
                       apply_operator, evaluate_grid, norm_lp,
                       random_polynomial)
from .bandlimited import (BandLimitedFunction, DecayModel, akhiezer_family,
                          cos_product, cs_extremal, norm_lp_truncated,
                          poisson_window_sum, separable_sum, sinc_kernel,
                          sinc_sq_half_kernel, tensor_product,
                          weight_transform)
from .levitan import (LevitanResult, check_norm_contraction,
                      check_operator_error, levitan_coefficients,
                      levitan_evaluate)
from .constants import (BernsteinBracket, OptimizerConfig,
                        SharpConstantEstimate, bernstein_pq,
                        candidate_lower_bound_E, check_order_consistency,
                        closed_e2_inf, closed_e22, closed_form,
                        closed_p2_inf, closed_p22, crude_upper, limit_study,
                        monomial_integral, nikolskii_upper, optimize_full)

__all__ = [name for name in dir() if not name.startswith("_")]
