"""The package's public surface is the documented list and nothing more."""

import inspect

import grafn

DOCUMENTED = {
    "TrainConfig", "GraphDataset", "SplitSpec", "load_dataset", "write_dataset",
    "generate_splits", "random_dataset", "fit", "RunResult", "predict",
    "save_checkpoint", "load_checkpoint", "run_benchmark", "sim_at_k",
    "ConfigError", "DataError", "DivergenceError", "GrafnError", "NumericsError",
}


def test_public_names_are_the_documented_api():
    public = {name for name, value in vars(grafn).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == DOCUMENTED
    assert sorted(grafn.__all__) == sorted(DOCUMENTED)
