"""repro: a pure-Python reproduction of the MLPerf Inference benchmark.

The package mirrors the paper's decomposition:

* ``repro.core``       - the LoadGen, scenarios, statistics, run rules;
* ``repro.models``     - reference-model substrate (architectures,
                         runnable instantiations, NMS, quantization);
* ``repro.datasets``   - synthetic ImageNet/COCO/WMT16 stand-ins;
* ``repro.accuracy``   - Top-1 / mAP / BLEU and the accuracy script;
* ``repro.sut``        - simulated devices, backends, and the fleet;
* ``repro.audit``      - the Section V-B validation suite;
* ``repro.submission`` - submission schema, checker, review, reporting;
* ``repro.harness``    - capacity tuning, fleet sweeps, table formatters,
                         the SUT stack builder;
* ``repro.metrics``    - counters, gauges, histograms, ledgers, export;
* ``repro.network``    - the Network division: wire protocol, inference
                         server, network SUT, simulated channel;
* ``repro.parallel``   - process-parallel workers over shared memory;
* ``repro.faults``     - fault injection, retries, hedges, chaos;
* ``repro.durability`` - crash-safe journals, resume, self-healing;
* ``repro.fleet``      - replicas, balancer, autoscaler, capacity sweep;
* ``repro.streaming``  - token streams, TTFT/TPOT SLOs, goodput;
* ``repro.sessions``   - multi-turn sessions over a shared-prefix cache.

Each package's ``__init__`` lists its exports in one table and imports
a submodule when one of its names is first read (``repro._exports``),
so importing one module loads only what that module imports.

Quickstart::

    from repro.core import Scenario, TestSettings, run_benchmark
    from repro.datasets import DatasetQSL, SyntheticImageNet
    from repro.models.runtime import build_glyph_classifier
    from repro.sut import ClassifierSUT

    dataset = SyntheticImageNet(size=512)
    qsl = DatasetQSL(dataset)
    model = build_glyph_classifier(dataset, variant="heavy")
    sut = ClassifierSUT(model, qsl, service_time_fn=lambda n: 0.002 * n)
    settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                            min_query_count=256, min_duration=1.0)
    result = run_benchmark(sut, qsl, settings)
    print(result.summary())
"""

__version__ = "0.5.0"
