"""Which candidate should you try first?

Three ways to attack a problem, each with a success probability and some
observed running times.  The expected time to the first success is minimized
by trying candidates in decreasing order of p / (mean time) — not by highest
probability, and not by shortest time.
"""

from trialorder import (
    Candidate,
    CandidateSet,
    Ordering,
    brute_force_best_order,
    expected_time,
    mean_time,
    ratio,
    solomonoff_order,
)

candidates = CandidateSet((
    Candidate("heavy-hammer", p=0.9, time_samples=(30.0, 34.0)),   # likely but slow
    Candidate("quick-guess", p=0.25, time_samples=(2.0,)),         # cheap long shot
    Candidate("solid-method", p=0.6, time_samples=(10.0, 8.0)),    # middle ground
))

print("candidate        p      mean t   p/t")
for c in candidates:
    print(f"{c.id:15}  {c.p:4.2f}  {mean_time(c):7.2f}  {ratio(c):.4f}")

best = solomonoff_order(candidates)
print("\noptimal order:", " -> ".join(candidates[i].id for i in best))
print("expected time, optimal order:   ",
      round(expected_time(candidates, best), 4))

by_probability = Ordering((0, 2, 1))  # heavy-hammer first
print("expected time, highest-p first: ",
      round(expected_time(candidates, by_probability), 4))

# The exact search over all 3! orders agrees with the rule.
bf = brute_force_best_order(candidates)
print(f"\nbrute force over {bf.evaluated} orders picks:",
      " -> ".join(candidates[i].id for i in bf.best_order),
      f"(E = {bf.best_expected_time:.4f})")
