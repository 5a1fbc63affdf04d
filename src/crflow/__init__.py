"""Structure-preserving gradient flow of the Webster curvature energy on
model pseudohermitian 3-manifolds, plus the Heisenberg CR inversion."""
