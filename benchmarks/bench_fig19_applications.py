"""Figure 19: application fidelity — Sybil defense and anonymous communication.

Paper results: SybilLimit's admitted-Sybil counts and the end-to-end
timing-analysis probability computed on topologies generated by our model are
close to the real Google+ values (error of a few percent), while the Zhel
baseline's error is several times larger.
"""

from repro.experiments import figure19_applications, format_table


def test_fig19_application_fidelity(
    benchmark, reference_san, model_run, model_run_no_focal, zhel_san, write_result
):
    result = benchmark.pedantic(
        figure19_applications,
        args=(reference_san, model_run.san, zhel_san),
        kwargs={"model_no_focal_san": model_run_no_focal.san, "rng": 19},
        rounds=1,
        iterations=1,
    )

    rows = []
    for application in ("sybil", "anonymity"):
        for network, series in result[application].items():
            for compromised, value in series:
                rows.append(
                    {
                        "application": application,
                        "network": network,
                        "compromised": compromised,
                        "value": value,
                    }
                )
    error_rows = [
        {"application": application, "network": network, "mean_relative_error": error}
        for application, errors in result["relative_errors"].items()
        for network, error in errors.items()
    ]
    write_result(
        "fig19_applications",
        format_table(rows, title="Figure 19 — application curves")
        + "\n\n"
        + format_table(error_rows, title="Figure 19 — relative errors vs Google+"),
    )

    # Sybil identities and attack probability increase with compromised nodes
    # on the reference topology.
    for application in ("sybil", "anonymity"):
        series = result[application]["google_plus"]
        assert series[-1][1] >= series[0][1]

    errors = result["relative_errors"]
    # Our model is at least as faithful as Zhel on both applications.
    assert errors["sybil"]["san_model_fc"] <= errors["sybil"]["zhel"] + 0.05
    assert errors["anonymity"]["san_model_fc"] <= errors["anonymity"]["zhel"] + 0.1
