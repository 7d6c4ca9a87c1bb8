"""P1 finite elements for mixed wall / elastic-chain boundary problems.

The interior operator is the Laplacian; on designated boundary chains
the flux balances a second-order tangential operator with variable
coefficients, while the remaining boundary carries prescribed values.
The package provides exact curved geometry, structured meshing over
three reference domains, assembly and direct solution, and an
extensive verification suite (inequality oracles, coercivity and
continuity certificates, independent-quadrature residuals, and
manufactured-solution convergence studies).

Import names from the modules (``ventcelfem.solver``,
``ventcelfem.verify``, ...): the package root re-exports nothing.
"""
