/* Metropolis sweeps, one read after another, as in _sa_py.run_metropolis. Spin i's neighbours are
   CSR entries row_ptr[i]..row_ptr[i+1]-1; h and nbr_val advance h_stride, val_stride per read. */
void run_metropolis(long reads, long n, long sweeps, signed char *spins, const double *h,
                    long h_stride, const int *row_ptr, const int *nbr_idx, const double *nbr_val,
                    long val_stride, const int *perms, const double *betas, const double *log_u)
{
    for (long r = 0; r < reads; r++) {
        signed char *s = spins + r * n;
        const double *hr = h + r * h_stride, *vr = nbr_val + r * val_stride;
        for (long c = 0; c < sweeps; c++)
            for (long t = 0; t < n; t++) {
                long i = perms[r * n + t];
                double field = hr[i];
                for (long d = row_ptr[i]; d < row_ptr[i + 1]; d++)
                    field += vr[d] * s[nbr_idx[d]];
                if (log_u[(r * sweeps + c) * n + t] < -betas[c] * (-2.0 * s[i] * field))
                    s[i] = -s[i];
            }
    }
}
