"""Model checking: BMC, k-induction, and IC3/PDR over the IR, plus the
portfolio verification service (strategy registry, parallel scheduler,
result cache) that every higher layer dispatches through."""
