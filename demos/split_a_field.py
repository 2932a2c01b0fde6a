"""Walk through the conservative / sphere-invariant split of a field.

Any continuously differentiable field X on R^n splits uniquely as
X = grad H + u, where the scalar potential

    H(x) = integral_0^1 <X(t x), x> dt

vanishes at the origin and the remainder u is orthogonal to the position
vector at every point (it is tangent to origin-centered spheres).  This
script computes the split for a field given in the text DSL and checks
the identities that make the split trustworthy.

Run:  python3 demos/split_a_field.py
"""

import numpy as np

from presnov import decompose_many, parse_field, verify_decomposition
from presnov.sampling import ball_points

# A planar field written in the DSL: a gradient part (x1^2, x2) plus a
# rotation (-x2, x1) that is invisible to the potential.
field = parse_field("x1^2 - x2; x2 + x1")
print(f"field: {field.label}   (dimension {field.dimension})")

# Every function takes a batch of points; one point x is the batch [x].
x = np.array([1.0, 1.0])
sample = decompose_many(field, [x]).sample(0)
print(f"\npotential at {x.tolist()}: H = {sample.potential:.12f}"
      f"  (quadrature error <= {sample.potential_error:.1e})")
print("hand value: the rotation integrates to zero, so H = 1/3 + 1/2 = 5/6")

print(f"\nfull split at {x.tolist()}:")
print(f"  conservative part    {sample.conservative}")
print(f"  sphere-invariant u   {sample.sphere_invariant}")
print(f"  <u, x>               {sample.orthogonality_residual:.2e}  (orthogonality)")
print(f"  <X,x> - <gradH,x>    {sample.radial_equality_residual:.2e}  (radial equality)")

# The idempotence residual is where the two gradient routes meet: the
# split's grad H (differentiating the integral) against finite
# differences of H, which share no formula with it.
points = ball_points(2, 50, 3.0, seed=0)
report = verify_decomposition(field, points)
print(f"\nverification over {report.point_count} sampled points (normalized residuals):")
print(f"  orthogonality                       {report.max_orthogonality:.2e}")
print(f"  radial equality                     {report.max_radial_equality:.2e}")
print(f"  idempotence (FD vs integral route)  {report.max_idempotence:.2e}")
print(f"  potential of u                      {report.max_residual_potential:.2e}")
print(f"  verdict: {'PASS' if report.passed else 'FAIL'} at threshold {report.threshold}")
