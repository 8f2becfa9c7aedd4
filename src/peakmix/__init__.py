"""Two-person DNA mixture analysis from relative peak sizes.

Relative peak sizes per marker follow a Dirichlet distribution with
concentration beta * mu, where mu encodes the contributor genotypes and
mixture proportion theta, and beta = 1/sigma^2 - 1 measures generic peak
imbalance. The package estimates (theta, sigma) by maximum likelihood or
Gibbs sampling, computes likelihood-ratio evidence with parametric
bootstrap uncertainty, and performs certified top-k mixture deconvolution.
"""

from .bootstrap import BootstrapReport, bootstrap_lr, simulate_dataset
from .deconvolve import (
    RankedPair,
    RankedPairList,
    certified_topk,
    exact_pair_probability,
    sample_profile_pairs,
)
from .estimate import FitResult, fit_joint, fit_sigma
from .gibbs import (
    BayesLR,
    BetaPrior,
    ChainSamples,
    ConcavityError,
    PosteriorSummary,
    ars_sample,
    bayes_log10_lr,
    bayes_pair_probability,
    run_chain,
)
from .likelihood import (
    MarkerGenotypeDist,
    MixtureLikelihood,
    ThetaGrid,
    genotype_posterior,
    log10_lr,
    loglik_joint,
    loglik_sigma_profile,
    marker_loglik,
)
from .model import (
    augment_frequencies,
    beta_from_sigma,
    enumerate_genotype_pairs,
    hb_prediction_interval,
    hw_genotype_log_prior,
    log_dirichlet_density,
    mean_fractions,
    sigma_from_beta,
)
from .types import (
    BOTH_UNKNOWN,
    Allele,
    DataError,
    FrequencyTable,
    Genotype,
    GenotypeConfig,
    Hypothesis,
    MarkerData,
    MeanFractions,
    MixtureDataset,
    ModelParams,
    NumericError,
    Profile,
)

__version__ = "0.1.0"
