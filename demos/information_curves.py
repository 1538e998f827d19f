"""Closed-form information curves and what replaces them for two-way schemes.

For bb84 the standard individual-attack trade-off is a pair of curves in
the disturbance D: the parties share 1 - h(D), the attacker gains h(D),
and the key survives privacy amplification only while the first exceeds
the second, i.e. below the critical disturbance D* = 0.1100.

For the deterministic two-way schemes under their transparent attacks the
disturbance is identically zero, so there is no such threshold: the
attacker's information is simply her attack rate q, and the secret
fraction is the straight line 1 - q.
"""

from twoway_qkd import (
    bb84_mutual_information,
    critical_disturbance,
    disturbance_grid,
    twoway_mutual_information,
)


def main() -> None:
    d_star = critical_disturbance()
    print(f"critical disturbance for bb84: D* = {d_star:.6f}")
    print()

    print("bb84 curves (per sifted bit)")
    print("  D      I_AB     I_AE     r")
    for d in disturbance_grid(0.0, 0.20, 0.02):
        i_ab, i_ae = bb84_mutual_information(float(d))
        marker = "  <- crossing in this bin" if d <= d_star < d + 0.02 else ""
        print(f"  {d:4.2f}   {i_ab:.4f}   {i_ae:.4f}   {i_ab - i_ae:+.4f}{marker}")
    print()

    print("two-way schemes under a transparent attack at rate q")
    print("  q      I_AB     I_AE     r")
    for q in [i / 10 for i in range(11)]:
        i_ab, i_ae = twoway_mutual_information(q)
        print(f"  {q:4.2f}   {i_ab:.4f}   {i_ae:.4f}   {i_ab - i_ae:+.4f}")
    print()
    print("I_AB stays at 1 bit because the attack adds no errors; the")
    print("attacker's information grows linearly and the secret fraction")
    print("only reaches zero when she attacks every round.")


if __name__ == "__main__":
    main()
